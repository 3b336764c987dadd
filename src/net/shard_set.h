#ifndef SPCA_NET_SHARD_SET_H_
#define SPCA_NET_SHARD_SET_H_

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/pca_model.h"
#include "net/router.h"
#include "obs/registry.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace spca::net {

struct ShardSetOptions {
  size_t num_shards = 1;
  /// Applied to every shard's ProjectionService (each shard owns its own
  /// WorkerPool of `service.num_threads` threads and its own bounded
  /// queue, so admission control and batching are per shard). The
  /// `service.metrics` field is overridden with `metrics` below.
  serve::ServiceOptions service;
  /// Ring seed: the model -> shard placement is a pure function of
  /// (router_seed, num_shards, model name), so a restarted or remote
  /// front-end with the same configuration routes identically.
  uint64_t router_seed = 0;
  size_t router_vnodes = 64;
  /// Shared across shards: serve.* counters/histograms aggregate over the
  /// whole set, net.route.shard<i> counters break routing down per shard.
  obs::Registry* metrics = nullptr;
};

/// N independent service shards behind one consistent-hash router. Each
/// shard owns its own ModelRegistry and ProjectionService (worker pool,
/// admission queue, dispatcher); a model lives on exactly the shard its
/// name hashes to, and every request for it routes there. Hot-swapping a
/// model (re-Load/Install under the same name) therefore swaps it on its
/// owning shard while the other shards keep serving undisturbed.
class ShardSet {
 public:
  explicit ShardSet(ShardSetOptions options);
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  /// Starts every shard's dispatcher. Fails if any shard fails to start.
  Status Start();
  /// Stops all shards (queued requests resolve kShutdown). Idempotent.
  void Stop();

  /// Loads a model file onto the shard its name routes to (hot-swap when
  /// the name exists).
  Status LoadModel(const std::string& name, const std::string& path);
  /// Installs an in-memory model on its owning shard.
  Status InstallModel(const std::string& name, core::PcaModel model);

  /// The shard index `model` routes to.
  size_t ShardOf(std::string_view model) const;
  /// Snapshot of the projector for `model` from its owning shard (nullptr
  /// when absent).
  std::shared_ptr<const serve::Projector> GetModel(
      const std::string& model) const;

  /// Routes by request.model and submits to the owning shard.
  std::future<serve::ProjectionResponse> Submit(
      serve::ProjectionRequest request);
  /// With defer_notify the owning shard's dispatcher is not woken; follow
  /// a deferred burst with KickAll() (see ProjectionService's contract).
  void SubmitWithCallback(serve::ProjectionRequest request,
                          std::function<void(serve::ProjectionResponse)> done,
                          bool defer_notify = false);
  /// Wakes every shard dispatcher; pairs with deferred submits.
  void KickAll();

  size_t num_shards() const { return shards_.size(); }
  serve::ModelRegistry* shard_models(size_t shard) {
    return shards_[shard]->models.get();
  }
  const ConsistentHashRouter& router() const { return router_; }
  const ShardSetOptions& options() const { return options_; }

 private:
  struct Shard {
    std::unique_ptr<serve::ModelRegistry> models;
    std::unique_ptr<serve::ProjectionService> service;
    obs::Counter* routed = nullptr;  // net.route.shard<i>
  };

  Shard* RouteShard(std::string_view model);

  ShardSetOptions options_;
  ConsistentHashRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool started_ = false;
};

}  // namespace spca::net

#endif  // SPCA_NET_SHARD_SET_H_
