#include "net/shard_set.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace spca::net {

ShardSet::ShardSet(ShardSetOptions options)
    : options_(std::move(options)),
      router_(ConsistentHashRouter::ForShards(
          std::max<size_t>(1, options_.num_shards), options_.router_seed,
          options_.router_vnodes)) {
  options_.num_shards = std::max<size_t>(1, options_.num_shards);
  options_.service.metrics = options_.metrics;
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->models = std::make_unique<serve::ModelRegistry>(options_.metrics);
    shard->service = std::make_unique<serve::ProjectionService>(
        shard->models.get(), options_.service);
    if (options_.metrics != nullptr) {
      shard->routed = options_.metrics->counter("net.route.shard" +
                                                std::to_string(s));
    }
    shards_.push_back(std::move(shard));
  }
}

ShardSet::~ShardSet() { Stop(); }

Status ShardSet::Start() {
  if (started_) return Status::FailedPrecondition("shard set already started");
  for (auto& shard : shards_) {
    SPCA_RETURN_IF_ERROR(shard->service->Start());
  }
  started_ = true;
  return Status::Ok();
}

void ShardSet::Stop() {
  for (auto& shard : shards_) shard->service->Stop();
}

ShardSet::Shard* ShardSet::RouteShard(std::string_view model) {
  return shards_[router_.RouteToShard(model)].get();
}

size_t ShardSet::ShardOf(std::string_view model) const {
  return router_.RouteToShard(model);
}

Status ShardSet::LoadModel(const std::string& name, const std::string& path) {
  return RouteShard(name)->models->Load(name, path);
}

Status ShardSet::InstallModel(const std::string& name, core::PcaModel model) {
  return RouteShard(name)->models->Install(name, std::move(model));
}

std::shared_ptr<const serve::Projector> ShardSet::GetModel(
    const std::string& model) const {
  return shards_[router_.RouteToShard(model)]->models->Get(model);
}

std::future<serve::ProjectionResponse> ShardSet::Submit(
    serve::ProjectionRequest request) {
  Shard* shard = RouteShard(request.model);
  if (shard->routed != nullptr) shard->routed->Add(1);
  return shard->service->Submit(std::move(request));
}

void ShardSet::SubmitWithCallback(
    serve::ProjectionRequest request,
    std::function<void(serve::ProjectionResponse)> done, bool defer_notify) {
  Shard* shard = RouteShard(request.model);
  if (shard->routed != nullptr) shard->routed->Add(1);
  shard->service->SubmitWithCallback(std::move(request), std::move(done),
                                     defer_notify);
}

void ShardSet::KickAll() {
  for (auto& shard : shards_) shard->service->Kick();
}

}  // namespace spca::net
