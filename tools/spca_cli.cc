// spca_cli — run any of the repository's PCA algorithms on a matrix from
// disk (or a generated dataset) and write the principal components out.
//
// Examples:
//   # 50 components of a sparse matrix, sPCA on the Spark-style engine:
//   spca_cli --input docs.spm --format sparse-bin --components 50
//            --output components.txt
//
//   # Generate a Tweets-shaped dataset and compare algorithms:
//   spca_cli --generate tweets --rows 50000 --cols 5000 --algorithm mahout
//
// Run with --help for the full flag list.

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/cov_eig_pca.h"
#include "baselines/lanczos_pca.h"
#include "baselines/ssvd_pca.h"
#include "baselines/svd_bidiag_pca.h"
#include "common/flags.h"
#include "common/format.h"
#include "core/solver.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "dist/replay.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/stream.h"
#include "serve/model_io.h"
#include "sketch/rand_svd.h"
#include "sketch/sparsifier.h"
#include "workload/datasets.h"
#include "workload/io.h"

namespace {

using spca::Status;
using spca::StatusOr;

constexpr const char* kUsage = R"(spca_cli — scalable PCA from the command line

Input (exactly one of):
  --input PATH          matrix file to load
  --format FMT          sparse-bin | dense-bin | sparse-text (with --text-cols N)
  --generate KIND       tweets | biotext | diabetes | images (synthetic data)
  --rows N --cols N     shape for --generate (defaults 20000 x 2000)

Algorithm:
  --algorithm ALG       spca (default) | mllib | mahout | lanczos | bidiag |
                        rand_svd | spca_sparse   (--solver is an alias)
  --platform P          spark (default) | mapreduce
  --components D        number of principal components (default 50)
  --iterations N        max EM / power iterations (default 10)
  --target FRACTION     stop at this fraction of ideal accuracy (default 0.95;
                        >1 disables the stop condition)
  --smart-guess         sPCA only: warm-start from a sample fit (sPCA-SG)

Sketching (src/sketch/, see DESIGN.md "Sketching solver family"):
  --sketch-dim K        rand_svd: sketch columns (default 0 = components + 10)
  --power-iters N       rand_svd: extra power iterations (default 1)
  --l1-threshold T      spca_sparse: per-sweep soft threshold on the loadings
                        (default 0.1)
  --sparsify-keep P     keep each input entry with probability P (reweighted
                        by 1/P) before fitting — composes with any algorithm;
                        the keep mask is seeded by --seed per input row

Cluster model:
  --partitions N        row partitions (default 16)
  --nodes N             simulated cluster nodes (default 8, 8 cores each)

Fault injection (deterministic; results are bit-identical to a clean run,
only recovery cost is charged — see DESIGN.md "Fault injection & recovery"):
  --fault-rate P        per-attempt task failure probability (default 0)
  --straggler-rate P    probability a task's committing attempt straggles
  --straggler-slowdown F  straggler compute multiplier (default 4)
  --max-retries N       retries per task before it must succeed (default 3)
  --retry-backoff SEC   rescheduling delay charged per retry (default 0)
  --fault-seed N        seed of the fault schedule (default 0x5ca1ab1e)
  --correlated-faults P per-(job, worker) node-loss probability: one draw
                        kills every task resident on that worker for the
                        job (tasks are placed round-robin over
                        --fault-workers workers)
  --fault-workers N     simulated workers for node-loss placement (default 16)
  --speculation         speculatively re-launch straggling tasks; first
                        committed copy wins, the duplicate's occupancy is
                        still charged to sim-time
  --speculation-delay F   re-launch a copy after this fraction of the
                        task's healthy time (default 0.25)
  --speculation-min-slowdown F  only speculate on tasks at least this much
                        slower than healthy (default 2)
  --replay-faults       keep the live run clean and inject the fault plan
                        during --replay-rows instead ("what would a 2%%
                        failure rate cost at a billion rows")

Checkpoint/restart (spca, rand_svd and spca_sparse; see DESIGN.md
"Checkpoint/restart"):
  --checkpoint-dir DIR  write DIR/checkpoint.spcm (+ .sstat resume sidecar)
                        after every EM iteration / sketch round
  --resume              load DIR/checkpoint.spcm and run only the remaining
                        iterations; bit-identical to the uninterrupted run

Output:
  --output PATH         write components as text (rows = dimensions)
  --output-bin PATH     write components as dense binary
  --save-model PATH     write the fitted model (components + mean + noise
                        variance) as a versioned, checksummed binary that
                        spca_serve / --load-model read back; a fit run under
                        fault injection also writes PATH.meta recording the
                        fault plan (seed/rates) and the recovery cost, and a
                        sketch-family fit (rand_svd / spca_sparse /
                        --sparsify-keep) records its sketch provenance
                        (solver, sketch_dim, power_iters, sparsify_keep,
                        seed) there too
  --load-model PATH     skip fitting: load a saved model and go straight to
                        the output/export flags (no --input needed)
  --seed N              RNG seed (default 1)

Observability:
  --metrics             print the metrics registry (counters/gauges/histograms)
  --trace-out PATH      write a Chrome trace-event JSON of the run; load it in
                        chrome://tracing or https://ui.perfetto.dev
  --trace-stream PATH   stream spans to PATH as JSON-lines *while* running,
                        draining the in-memory registry every --flush-every
                        completed jobs (so long sweeps stay bounded-memory);
                        read the result back with tools/trace_report. With
                        --trace-stream active, a simultaneous --trace-out
                        only holds the spans still live at exit.
  --flush-every N       flush window for --trace-stream (default 32 jobs)

Replay (cost-model extrapolation, see EXPERIMENTS.md):
  --replay-rows LIST    after the run, replay its recorded jobs at each row
                        count in the comma-separated LIST (e.g.
                        "1e6,70e6,1e9"), scaling per-row work and data
                        linearly, and print the extrapolated cluster times

Flags accept both "--flag value" and "--flag=value".
)";

/// Every flag's value; each field holds the flag's default.
struct Options {
  std::string input;
  std::string format = "sparse-bin";
  std::string generate;
  size_t rows = 20000;
  size_t cols = 2000;
  size_t text_cols = 0;  // 0: not given
  std::string algorithm = "spca";
  std::string platform = "spark";
  size_t components = 50;
  int iterations = 10;
  double target = 0.95;
  bool smart_guess = false;
  size_t sketch_dim = 0;
  int power_iters = 1;
  double l1_threshold = 0.1;
  double sparsify_keep = 0.0;  // 0: not given
  size_t partitions = 16;
  int nodes = 8;
  spca::dist::FaultSpec fault;
  bool replay_faults = false;
  std::string checkpoint_dir;
  bool resume = false;
  std::string output;
  std::string output_bin;
  std::string save_model;
  std::string load_model;
  uint64_t seed = 1;
  bool metrics = false;
  std::string trace_out;
  std::string trace_stream;
  size_t flush_every = spca::obs::TraceStreamer::kDefaultFlushEveryJobs;
  std::vector<double> replay_rows;
  bool help = false;
};

StatusOr<std::vector<double>> ParseRowCounts(const std::string& list) {
  std::vector<double> rows;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) {
      char* end = nullptr;
      const double value = std::strtod(item.c_str(), &end);
      if (end == item.c_str() || *end != '\0' || !(value > 0.0) ||
          !std::isfinite(value)) {
        return Status::InvalidArgument("bad --replay-rows entry '" + item +
                                       "'");
      }
      rows.push_back(value);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (rows.empty()) {
    return Status::InvalidArgument("--replay-rows needs at least one count");
  }
  return rows;
}

StatusOr<Options> ParseOptions(int argc, char** argv) {
  Options o;
  std::string solver;
  std::string replay_rows;
  spca::dist::FaultSpec& fault = o.fault;
  int max_retries = fault.max_task_attempts - 1;
  spca::FlagSet flags;
  flags.String("--input", &o.input);
  flags.String("--format", &o.format);
  flags.String("--generate", &o.generate);
  flags.Int("--rows", &o.rows, size_t{1});
  flags.Int("--cols", &o.cols, size_t{1});
  flags.Int("--text-cols", &o.text_cols, size_t{1});
  flags.String("--algorithm", &o.algorithm);
  flags.String("--solver", &solver);
  flags.String("--platform", &o.platform);
  flags.Int("--components", &o.components, size_t{1});
  flags.Int("--iterations", &o.iterations, 0);
  flags.Double("--target", &o.target);
  flags.Bool("--smart-guess", &o.smart_guess);
  flags.Int("--sketch-dim", &o.sketch_dim);
  flags.Int("--power-iters", &o.power_iters, 0);
  flags.Double("--l1-threshold", &o.l1_threshold);
  flags.Double("--sparsify-keep", &o.sparsify_keep);
  flags.Int("--partitions", &o.partitions, size_t{1});
  flags.Int("--nodes", &o.nodes, 1);
  flags.Double("--fault-rate", &fault.task_failure_probability);
  flags.Double("--straggler-rate", &fault.straggler_probability);
  flags.Double("--straggler-slowdown", &fault.straggler_slowdown);
  flags.Int("--max-retries", &max_retries, 0);
  flags.Double("--retry-backoff", &fault.retry_backoff_sec);
  flags.Int("--fault-seed", &fault.seed);
  flags.Double("--correlated-faults", &fault.node_failure_probability);
  flags.Int("--fault-workers", &fault.num_workers);
  flags.Bool("--speculation", &fault.speculation.enabled);
  flags.Double("--speculation-delay", &fault.speculation.relaunch_delay_factor);
  flags.Double("--speculation-min-slowdown", &fault.speculation.min_slowdown);
  flags.Bool("--replay-faults", &o.replay_faults);
  flags.String("--checkpoint-dir", &o.checkpoint_dir);
  flags.Bool("--resume", &o.resume);
  flags.String("--output", &o.output);
  flags.String("--output-bin", &o.output_bin);
  flags.String("--save-model", &o.save_model);
  flags.String("--load-model", &o.load_model);
  flags.Int("--seed", &o.seed);
  flags.Bool("--metrics", &o.metrics);
  flags.String("--trace-out", &o.trace_out);
  flags.String("--trace-stream", &o.trace_stream);
  flags.Int("--flush-every", &o.flush_every, size_t{1});
  flags.String("--replay-rows", &replay_rows);
  flags.Bool("--help", &o.help);
  SPCA_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (o.help) return o;

  // --solver is an exact alias for --algorithm (the Solver API's own
  // vocabulary); normalize here so the rest of the program sees one flag.
  if (!solver.empty()) {
    if (flags.Seen("--algorithm") && o.algorithm != solver) {
      return Status::InvalidArgument(
          "--solver and --algorithm are aliases; pass one");
    }
    o.algorithm = solver;
  }
  if (o.platform != "spark" && o.platform != "mapreduce") {
    return Status::InvalidArgument("--platform must be spark or mapreduce");
  }
  // Saturates instead of overflowing the int attempt count.
  fault.max_task_attempts = max_retries < INT_MAX ? max_retries + 1 : INT_MAX;
  SPCA_RETURN_IF_ERROR(fault.Validate());
  if (flags.Seen("--sparsify-keep") &&
      !(o.sparsify_keep > 0.0 && o.sparsify_keep <= 1.0)) {
    return Status::InvalidArgument("--sparsify-keep must be in (0, 1]");
  }
  if (!replay_rows.empty()) {
    auto rows = ParseRowCounts(replay_rows);
    if (!rows.ok()) return rows.status();
    o.replay_rows = std::move(rows).value();
  }
  if (o.replay_faults && o.replay_rows.empty()) {
    return Status::InvalidArgument("--replay-faults requires --replay-rows");
  }
  // Checkpoint/restart covers the solvers that write resume state.
  if (o.resume || !o.checkpoint_dir.empty()) {
    if (o.algorithm != "spca" && o.algorithm != "rand_svd" &&
        o.algorithm != "spca_sparse") {
      return Status::InvalidArgument(
          "--checkpoint-dir/--resume support only --algorithm spca, "
          "rand_svd or spca_sparse");
    }
    if (o.checkpoint_dir.empty()) {
      return Status::InvalidArgument("--resume needs --checkpoint-dir");
    }
  }
  return o;
}

StatusOr<spca::dist::DistMatrix> LoadInput(const Options& o) {
  namespace workload = spca::workload;
  if (!o.generate.empty()) {
    workload::DatasetKind kind;
    if (o.generate == "tweets") {
      kind = workload::DatasetKind::kTweets;
    } else if (o.generate == "biotext") {
      kind = workload::DatasetKind::kBioText;
    } else if (o.generate == "diabetes") {
      kind = workload::DatasetKind::kDiabetes;
    } else if (o.generate == "images") {
      kind = workload::DatasetKind::kImages;
    } else {
      return Status::InvalidArgument("unknown --generate kind " + o.generate);
    }
    return workload::MakeDataset(kind, o.rows, o.cols, o.partitions, o.seed)
        .matrix;
  }
  if (o.input.empty()) {
    return Status::InvalidArgument("need --input or --generate (see --help)");
  }
  if (o.format == "sparse-bin") {
    auto matrix = workload::LoadSparseBinary(o.input);
    if (!matrix.ok()) return matrix.status();
    return spca::dist::DistMatrix::FromSparse(std::move(matrix.value()),
                                              o.partitions);
  }
  if (o.format == "dense-bin") {
    auto matrix = workload::LoadDenseBinary(o.input);
    if (!matrix.ok()) return matrix.status();
    return spca::dist::DistMatrix::FromDense(std::move(matrix.value()),
                                             o.partitions);
  }
  if (o.format == "sparse-text") {
    if (o.text_cols == 0) {
      return Status::InvalidArgument("sparse-text needs --text-cols");
    }
    auto matrix = workload::LoadSparseText(o.input, o.text_cols);
    if (!matrix.ok()) return matrix.status();
    return spca::dist::DistMatrix::FromSparse(std::move(matrix.value()),
                                              o.partitions);
  }
  return Status::InvalidArgument("unknown --format " + o.format);
}

/// Builds the requested algorithm behind the one core::Solver surface —
/// spca_cli no longer knows about per-algorithm Fit entry points.
StatusOr<std::unique_ptr<spca::core::Solver>> MakeSolver(
    const Options& o, spca::dist::Engine* engine) {
  if (o.algorithm == "spca") {
    spca::core::SpcaOptions options;
    options.num_components = o.components;
    options.max_iterations = o.iterations;
    options.target_accuracy_fraction = o.target;
    options.smart_guess = o.smart_guess;
    options.seed = o.seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::core::Spca>(engine, options));
  }
  if (o.algorithm == "mllib") {
    spca::baselines::CovEigOptions options;
    options.num_components = o.components;
    options.seed = o.seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::baselines::CovEigPca>(engine, options));
  }
  if (o.algorithm == "mahout") {
    spca::baselines::SsvdOptions options;
    options.num_components = o.components;
    options.max_power_iterations = o.iterations;
    options.target_accuracy_fraction = o.target;
    options.seed = o.seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::baselines::SsvdPca>(engine, options));
  }
  if (o.algorithm == "lanczos") {
    spca::baselines::LanczosOptions options;
    options.num_components = o.components;
    options.seed = o.seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::baselines::LanczosPca>(engine, options));
  }
  if (o.algorithm == "bidiag") {
    spca::baselines::SvdBidiagOptions options;
    options.num_components = o.components;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::baselines::SvdBidiagPca>(engine, options));
  }
  if (o.algorithm == "rand_svd") {
    spca::sketch::RandSvdOptions options;
    options.num_components = o.components;
    options.sketch_dim = o.sketch_dim;
    options.power_iterations = o.power_iters;
    options.target_accuracy_fraction = o.target;
    options.seed = o.seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::sketch::RandSvdPca>(engine, options));
  }
  if (o.algorithm == "spca_sparse") {
    spca::core::SpcaOptions options;
    options.num_components = o.components;
    options.max_iterations = o.iterations;
    options.l1_threshold = o.l1_threshold;
    options.error_sample_rows = 1000;
    options.target_accuracy_fraction = o.target;
    options.seed = o.seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::core::Spca>(engine, options));
  }
  return Status::InvalidArgument("unknown --algorithm " + o.algorithm);
}

StatusOr<spca::core::PcaModel> RunAlgorithm(Options o,
                                            spca::dist::Engine* engine,
                                            const spca::dist::DistMatrix& y) {
  // Checkpoint/restart: the checkpoint file is a normal SPCM model plus an
  // .sstat sidecar of resume state, overwritten after every EM iteration
  // or sketch round. --resume warm-starts from it and runs only the
  // remaining steps; sidecar step numbering stays global across restarts.
  const bool checkpointing = !o.checkpoint_dir.empty();
  const std::string checkpoint_file = o.checkpoint_dir + "/checkpoint.spcm";
  uint64_t base_step = 0;
  std::optional<spca::serve::LoadedCheckpoint> loaded;
  if (o.resume) {
    auto checkpoint = spca::serve::LoadCheckpoint(checkpoint_file);
    if (!checkpoint.ok()) return checkpoint.status();
    loaded = std::move(checkpoint).value();
    base_step = loaded->state.step;
    // Remaining-work math: spca/spca_sparse checkpoint after each EM
    // iteration out of --iterations; rand_svd after each sketch round out
    // of --power-iters + 1 (the first round is the single data pass).
    const bool rounds = o.algorithm == "rand_svd";
    const long total = rounds ? o.power_iters + 1L : o.iterations;
    std::printf("resuming %s from %s %llu of %ld\n", checkpoint_file.c_str(),
                rounds ? "round" : "iteration",
                static_cast<unsigned long long>(base_step), total);
    const long remaining = total - static_cast<long>(base_step);
    if (remaining <= 0) {
      std::printf("checkpoint already complete; nothing to run\n");
      return std::move(loaded->model);
    }
    if (rounds) {
      o.power_iters = static_cast<int>(remaining - 1);
    } else {
      o.iterations = static_cast<int>(remaining);
    }
  }

  auto solver = MakeSolver(o, engine);
  if (!solver.ok()) return solver.status();

  spca::core::FitOptions fit;
  if (checkpointing) {
    fit.on_checkpoint = [&](const spca::core::PcaModel& model,
                            const spca::core::SolverCheckpoint& state) {
      spca::core::SolverCheckpoint shifted = state;
      shifted.step += base_step;
      return spca::serve::SaveCheckpoint(model, shifted, checkpoint_file);
    };
  }

  auto run = [&]() -> StatusOr<spca::core::SolveResult> {
    if (!o.resume) return spca::core::RunSolver(solver.value().get(), y, fit);
    // Restore must land between Init and Step, so spell out RunSolver.
    SPCA_RETURN_IF_ERROR(solver.value()->Init(fit));
    SPCA_RETURN_IF_ERROR(solver.value()->Restore(loaded->model,
                                                 loaded->state));
    SPCA_RETURN_IF_ERROR(solver.value()->Step(y));
    return solver.value()->Result();
  };
  auto result = run();
  if (!result.ok()) return result.status();
  if (checkpointing) {
    std::printf("checkpointed every iteration to %s\n",
                checkpoint_file.c_str());
  }
  // Keyed by the flag, not Solver::name(): `--solver spca_sparse
  // --l1-threshold 0` runs plain sPCA but keeps its sparse-PPCA line.
  if (o.algorithm == "spca") {
    std::printf("sPCA: %d iterations", result.value().iterations_run);
    if (!result.value().trace.empty()) {
      std::printf(", final accuracy %.1f%% of ideal",
                  result.value().trace.back().accuracy_percent);
    }
    std::printf("\n");
  } else if (o.algorithm == "mllib") {
    std::printf("MLlib-PCA: driver held %s\n",
                spca::HumanBytes(
                    static_cast<double>(result.value().driver_bytes))
                    .c_str());
  } else if (o.algorithm == "mahout") {
    std::printf("Mahout-PCA (SSVD): %d rounds\n",
                result.value().iterations_run);
  } else if (o.algorithm == "rand_svd") {
    std::printf("RandSVD-PCA: %d sketch rounds", result.value().iterations_run);
    if (!result.value().trace.empty()) {
      std::printf(", final accuracy %.1f%% of ideal",
                  result.value().trace.back().accuracy_percent);
    }
    std::printf("\n");
  } else if (o.algorithm == "spca_sparse") {
    std::printf("sparse-PPCA: %d iterations", result.value().iterations_run);
    if (!result.value().trace.empty()) {
      std::printf(", final accuracy %.1f%% of ideal",
                  result.value().trace.back().accuracy_percent);
    }
    std::printf("\n");
  }
  return std::move(result.value().model);
}

/// Handles --output / --output-bin / --save-model for a model however it
/// was obtained (fitted this run or loaded from disk). A non-empty
/// `fault_meta` (key=value lines describing the fault plan the fit ran
/// under) is written next to --save-model as a `.meta` side-channel so a
/// served model's provenance survives the process.
int WriteModelOutputs(const Options& o, const spca::core::PcaModel& model,
                      const std::string& fault_meta = std::string()) {
  if (!o.output.empty()) {
    const Status status =
        spca::workload::SaveDenseText(model.components, o.output);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", o.output.c_str());
  }
  if (!o.output_bin.empty()) {
    const Status status =
        spca::workload::SaveDenseBinary(model.components, o.output_bin);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", o.output_bin.c_str());
  }
  if (!o.save_model.empty()) {
    const std::string& path = o.save_model;
    const Status status = spca::serve::SaveModel(model, path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved model (%s) to %s\n",
                spca::HumanBytes(static_cast<double>(spca::serve::ModelFileSize(
                                     model.input_dim(),
                                     model.num_components())))
                    .c_str(),
                path.c_str());
    if (!fault_meta.empty()) {
      const std::string meta_path = path + ".meta";
      const Status meta_status = spca::obs::WriteFile(meta_path, fault_meta);
      if (!meta_status.ok()) {
        // The model without its provenance sidecar would masquerade as a
        // clean-run artifact; remove it and fail the whole invocation.
        std::remove(path.c_str());
        std::fprintf(stderr,
                     "error: %s\nerror: removed %s — a model fitted under "
                     "fault injection or a sketching solver must not be "
                     "saved without its .meta provenance\n",
                     meta_status.ToString().c_str(), path.c_str());
        return 1;
      }
      std::printf("saved fault metadata to %s\n", meta_path.c_str());
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  auto options = ParseOptions(argc, argv);
  if (!options.ok()) return spca::FlagError(options.status(), kUsage);
  const Options& o = options.value();
  if (o.help || argc == 1) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  if (!o.load_model.empty()) {
    // Serving path: no fit, no engine — load the persisted model and run
    // the output/export flags against it.
    auto model = spca::serve::LoadModel(o.load_model);
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded model %s: %zu x %zu, noise variance %.6g\n",
                o.load_model.c_str(), model->input_dim(),
                model->num_components(), model->noise_variance);
    return WriteModelOutputs(o, model.value());
  }

  auto matrix = LoadInput(o);
  if (!matrix.ok()) {
    std::fprintf(stderr, "error: %s\n", matrix.status().ToString().c_str());
    return 1;
  }
  std::printf("matrix: %zu x %zu, %zu stored entries (%s)\n",
              matrix->rows(), matrix->cols(), matrix->StoredEntries(),
              spca::HumanBytes(static_cast<double>(matrix->ByteSize()))
                  .c_str());

  spca::dist::ClusterSpec spec;
  spec.num_nodes = o.nodes;
  const spca::dist::FaultPlan fault_plan(o.fault);
  const spca::dist::EngineMode mode = o.platform == "mapreduce"
                                          ? spca::dist::EngineMode::kMapReduce
                                          : spca::dist::EngineMode::kSpark;
  spca::obs::Registry registry;
  spca::obs::TraceStreamer streamer(&registry, o.flush_every);
  if (!o.trace_stream.empty()) {
    const Status status = streamer.Open(o.trace_stream);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  spca::dist::Engine engine(spec, mode, &registry);
  if (fault_plan.active() && !o.replay_faults) {
    engine.SetFaultPlan(fault_plan);
  }

  // Input sparsification composes with any algorithm: replace the matrix
  // with its seeded keep/reweight sample before the fit sees it.
  if (o.sparsify_keep > 0.0) {
    spca::sketch::SparsifierOptions sparsify;
    sparsify.keep_probability = o.sparsify_keep;
    sparsify.seed = o.seed;
    matrix.value() =
        spca::sketch::Sparsifier(sparsify).Apply(matrix.value(), &registry);
    std::printf("sparsified input: keep %.3g -> %zu stored entries (%s)\n",
                o.sparsify_keep, matrix->StoredEntries(),
                spca::HumanBytes(static_cast<double>(matrix->ByteSize()))
                    .c_str());
  }

  auto model = RunAlgorithm(o, &engine, matrix.value());
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("components: %zu x %zu, noise variance %.6g\n",
              model->input_dim(), model->num_components(),
              model->noise_variance);
  std::printf("simulated cluster: %s (%d nodes, %s engine)\n",
              spca::HumanSeconds(engine.SimulatedSeconds()).c_str(),
              spec.num_nodes, spca::dist::EngineModeToString(mode));
  std::printf("communication: %s\n", engine.StatsSnapshot().ToString().c_str());
  std::string fault_meta;
  if (fault_plan.active() && !o.replay_faults) {
    const spca::dist::CommStats stats = engine.StatsSnapshot();
    auto counter = [&registry](const char* name) -> unsigned long long {
      const spca::obs::Counter* c = registry.FindCounter(name);
      return c == nullptr ? 0 : c->AsUint64();
    };
    const unsigned long long node_loss_tasks =
        counter("engine.faults.node_loss_tasks");
    const unsigned long long speculation_launched =
        counter("engine.speculation.launched");
    const unsigned long long speculation_copies_won =
        counter("engine.speculation.copies_won");
    const unsigned long long speculation_wasted_flops =
        counter("engine.speculation.wasted_flops");
    std::printf(
        "fault recovery: %llu task retries, %llu stragglers "
        "(seed %llu, rate %.3g, straggler rate %.3g)\n",
        static_cast<unsigned long long>(stats.task_retries),
        static_cast<unsigned long long>(stats.straggler_tasks),
        static_cast<unsigned long long>(o.fault.seed),
        o.fault.task_failure_probability, o.fault.straggler_probability);
    if (o.fault.node_failure_probability > 0.0) {
      std::printf("node losses: %llu tasks killed by correlated failures "
                  "(rate %.3g, %d workers)\n",
                  node_loss_tasks, o.fault.node_failure_probability,
                  o.fault.num_workers);
    }
    if (o.fault.speculation.enabled) {
      std::printf("speculation: %llu copies launched, %llu won, "
                  "%llu duplicate flops charged\n",
                  speculation_launched, speculation_copies_won,
                  speculation_wasted_flops);
    }
    // Provenance side-channel for --save-model: the fit ran under fault
    // injection; record the plan and what it cost so the served model's
    // history is auditable. The buffer is checked for truncation below —
    // a partial provenance record must never be written silently.
    char meta[1024];
    const int meta_len = std::snprintf(
        meta, sizeof(meta),
        "fault_seed=%llu\n"
        "fault_rate=%.17g\n"
        "straggler_rate=%.17g\n"
        "straggler_slowdown=%.17g\n"
        "max_retries=%d\n"
        "retry_backoff_sec=%.17g\n"
        "node_failure_probability=%.17g\n"
        "fault_workers=%d\n"
        "speculation=%d\n"
        "speculation_delay=%.17g\n"
        "speculation_min_slowdown=%.17g\n"
        "task_retries=%llu\n"
        "straggler_tasks=%llu\n"
        "node_loss_tasks=%llu\n"
        "speculation_launched=%llu\n"
        "speculation_copies_won=%llu\n"
        "speculation_wasted_flops=%llu\n"
        "algorithm=%s\n",
        static_cast<unsigned long long>(o.fault.seed),
        o.fault.task_failure_probability, o.fault.straggler_probability,
        o.fault.straggler_slowdown, o.fault.max_task_attempts - 1,
        o.fault.retry_backoff_sec, o.fault.node_failure_probability,
        o.fault.num_workers, o.fault.speculation.enabled ? 1 : 0,
        o.fault.speculation.relaunch_delay_factor,
        o.fault.speculation.min_slowdown,
        static_cast<unsigned long long>(stats.task_retries),
        static_cast<unsigned long long>(stats.straggler_tasks),
        node_loss_tasks, speculation_launched, speculation_copies_won,
        speculation_wasted_flops, o.algorithm.c_str());
    if (meta_len < 0 || static_cast<size_t>(meta_len) >= sizeof(meta)) {
      std::fprintf(stderr,
                   "error: fault metadata truncated (%d bytes needed)\n",
                   meta_len);
      return 1;
    }
    fault_meta = meta;
  }
  // Sketch provenance rides in the same .meta sidecar: which sketch solver
  // (or input sparsification) produced the saved model, and with what
  // dials, so a served model's accuracy/cost trade-off is auditable.
  if (o.algorithm == "rand_svd" || o.algorithm == "spca_sparse" ||
      o.sparsify_keep > 0.0) {
    char sketch_meta[512];
    const int sketch_len = std::snprintf(
        sketch_meta, sizeof(sketch_meta),
        "solver=%s\n"
        "sketch_dim=%zu\n"
        "power_iters=%d\n"
        "l1_threshold=%.17g\n"
        "sparsify_keep=%.17g\n"
        "seed=%llu\n",
        o.algorithm.c_str(), o.sketch_dim, o.power_iters, o.l1_threshold,
        o.sparsify_keep, static_cast<unsigned long long>(o.seed));
    if (sketch_len < 0 ||
        static_cast<size_t>(sketch_len) >= sizeof(sketch_meta)) {
      std::fprintf(stderr,
                   "error: sketch metadata truncated (%d bytes needed)\n",
                   sketch_len);
      return 1;
    }
    fault_meta += sketch_meta;
  }

  if (!o.replay_rows.empty()) {
    std::printf(
        "\nreplayed at other row counts (cost model; per-row work and data "
        "scaled linearly, driver algebra and broadcasts held fixed%s):\n",
        o.replay_faults ? "; fault plan injected into each replay" : "");
    double cursor = engine.SimulatedSeconds();
    for (const double rows : o.replay_rows) {
      const double scale = rows / static_cast<double>(matrix->rows());
      char label[48];
      std::snprintf(label, sizeof(label), "%.0frows", rows);
      const double seconds = spca::dist::ReplayRun(
          engine.traces(), engine.StatsSnapshot(), spec, mode,
          [scale](const spca::dist::JobTrace&) {
            spca::dist::ReplayScales scales;
            scales.flops = scale;
            scales.input_bytes = scale;
            scales.intermediate_bytes = scale;
            scales.result_bytes = 1.0;
            return scales;
          },
          &registry, label, cursor,
          o.replay_faults ? &fault_plan : nullptr);
      cursor += seconds;
      std::printf("  %14.0f rows: %s\n", rows,
                  spca::HumanSeconds(seconds).c_str());
    }
  }

  if (const int rc = WriteModelOutputs(o, model.value(), fault_meta);
      rc != 0) {
    return rc;
  }
  if (streamer.is_open()) {
    const size_t live_spans = registry.SpansHeld();
    const Status status = streamer.Close();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("streamed %zu spans in %zu flushes to %s (%zu live at exit)\n",
                streamer.spans_written(), streamer.flushes(),
                streamer.path().c_str(), live_spans);
  }
  if (o.metrics) {
    std::printf("\n%s", spca::obs::MetricsTable(registry).c_str());
  }
  if (!o.trace_out.empty()) {
    const std::string& path = o.trace_out;
    const Status status =
        spca::obs::WriteFile(path, spca::obs::ChromeTraceJson(registry));
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace (%zu spans) to %s\n", registry.spans().size(),
                path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
