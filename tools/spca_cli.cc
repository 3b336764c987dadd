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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/baseline_solvers.h"
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
  --fault-rate P        per-attempt task failure probability (default 0;
                        --failures is a legacy alias)
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

struct Args {
  std::map<std::string, std::string> values;
  bool Has(const std::string& key) const { return values.contains(key); }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  long GetInt(const std::string& key, long fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atol(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  static const char* kFlagsWithValue[] = {
      "--input",      "--format",     "--generate", "--rows",
      "--cols",       "--text-cols",  "--algorithm", "--platform",
      "--components", "--iterations", "--target",    "--partitions",
      "--nodes",      "--failures",   "--output",    "--output-bin",
      "--save-model", "--load-model",
      "--seed",       "--trace-out",  "--trace-stream", "--flush-every",
      "--replay-rows", "--fault-rate", "--fault-seed", "--straggler-rate",
      "--straggler-slowdown", "--max-retries", "--retry-backoff",
      "--correlated-faults", "--fault-workers", "--speculation-delay",
      "--speculation-min-slowdown", "--checkpoint-dir",
      "--solver", "--sketch-dim", "--power-iters", "--l1-threshold",
      "--sparsify-keep"};
  static const char* kFlagsBare[] = {"--smart-guess", "--metrics",
                                     "--replay-faults", "--speculation",
                                     "--resume", "--help"};
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    // Accept --flag=value as well as "--flag value".
    std::string inline_value;
    bool has_inline_value = false;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_inline_value = true;
    }
    bool matched = false;
    for (const char* known : kFlagsBare) {
      if (flag == known) {
        if (has_inline_value) {
          return Status::InvalidArgument(flag + " does not take a value");
        }
        args.values[flag] = "1";
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const char* known : kFlagsWithValue) {
      if (flag == known) {
        if (has_inline_value) {
          args.values[flag] = inline_value;
        } else {
          if (i + 1 >= argc) {
            return Status::InvalidArgument(flag + " needs a value");
          }
          args.values[flag] = argv[++i];
        }
        matched = true;
        break;
      }
    }
    if (!matched) return Status::InvalidArgument("unknown flag " + flag);
  }
  // --solver is an exact alias for --algorithm (the Solver API's own
  // vocabulary); normalize here so the rest of the program sees one flag.
  if (args.Has("--solver")) {
    if (args.Has("--algorithm") &&
        args.Get("--algorithm", "") != args.Get("--solver", "")) {
      return Status::InvalidArgument(
          "--solver and --algorithm are aliases; pass one");
    }
    args.values["--algorithm"] = args.Get("--solver", "");
  }
  return args;
}

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
      if (end == item.c_str() || *end != '\0' || !(value > 0.0)) {
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

StatusOr<spca::dist::DistMatrix> LoadInput(const Args& args,
                                           size_t partitions) {
  namespace workload = spca::workload;
  if (args.Has("--generate")) {
    const std::string kind_name = args.Get("--generate", "");
    workload::DatasetKind kind;
    if (kind_name == "tweets") {
      kind = workload::DatasetKind::kTweets;
    } else if (kind_name == "biotext") {
      kind = workload::DatasetKind::kBioText;
    } else if (kind_name == "diabetes") {
      kind = workload::DatasetKind::kDiabetes;
    } else if (kind_name == "images") {
      kind = workload::DatasetKind::kImages;
    } else {
      return Status::InvalidArgument("unknown --generate kind " + kind_name);
    }
    const size_t rows = args.GetInt("--rows", 20000);
    const size_t cols = args.GetInt("--cols", 2000);
    return workload::MakeDataset(kind, rows, cols, partitions,
                                 args.GetInt("--seed", 1))
        .matrix;
  }
  if (!args.Has("--input")) {
    return Status::InvalidArgument("need --input or --generate (see --help)");
  }
  const std::string path = args.Get("--input", "");
  const std::string format = args.Get("--format", "sparse-bin");
  if (format == "sparse-bin") {
    auto matrix = workload::LoadSparseBinary(path);
    if (!matrix.ok()) return matrix.status();
    return spca::dist::DistMatrix::FromSparse(std::move(matrix.value()),
                                              partitions);
  }
  if (format == "dense-bin") {
    auto matrix = workload::LoadDenseBinary(path);
    if (!matrix.ok()) return matrix.status();
    return spca::dist::DistMatrix::FromDense(std::move(matrix.value()),
                                             partitions);
  }
  if (format == "sparse-text") {
    if (!args.Has("--text-cols")) {
      return Status::InvalidArgument("sparse-text needs --text-cols");
    }
    auto matrix =
        workload::LoadSparseText(path, args.GetInt("--text-cols", 0));
    if (!matrix.ok()) return matrix.status();
    return spca::dist::DistMatrix::FromSparse(std::move(matrix.value()),
                                              partitions);
  }
  return Status::InvalidArgument("unknown --format " + format);
}

/// Builds the requested algorithm behind the one core::Solver surface —
/// spca_cli no longer knows about per-algorithm Fit entry points.
StatusOr<std::unique_ptr<spca::core::Solver>> MakeSolver(
    const Args& args, spca::dist::Engine* engine) {
  const std::string algorithm = args.Get("--algorithm", "spca");
  const size_t d = args.GetInt("--components", 50);
  const int iterations = static_cast<int>(args.GetInt("--iterations", 10));
  const double target = args.GetDouble("--target", 0.95);
  const uint64_t seed = args.GetInt("--seed", 1);

  if (algorithm == "spca") {
    spca::core::SpcaOptions options;
    options.num_components = d;
    options.max_iterations = iterations;
    options.target_accuracy_fraction = target;
    options.smart_guess = args.Has("--smart-guess");
    options.seed = seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::core::Spca>(engine, options));
  }
  if (algorithm == "mllib") {
    spca::baselines::CovEigOptions options;
    options.num_components = d;
    options.seed = seed;
    return spca::baselines::MakeCovEigSolver(engine, options);
  }
  if (algorithm == "mahout") {
    spca::baselines::SsvdOptions options;
    options.num_components = d;
    options.max_power_iterations = iterations;
    options.target_accuracy_fraction = target;
    options.seed = seed;
    return spca::baselines::MakeSsvdSolver(engine, options);
  }
  if (algorithm == "lanczos") {
    spca::baselines::LanczosOptions options;
    options.num_components = d;
    options.seed = seed;
    return spca::baselines::MakeLanczosSolver(engine, options);
  }
  if (algorithm == "bidiag") {
    spca::baselines::SvdBidiagOptions options;
    options.num_components = d;
    return spca::baselines::MakeSvdBidiagSolver(engine, options);
  }
  if (algorithm == "rand_svd") {
    spca::sketch::RandSvdOptions options;
    options.num_components = d;
    options.sketch_dim = static_cast<size_t>(args.GetInt("--sketch-dim", 0));
    options.power_iterations =
        static_cast<int>(args.GetInt("--power-iters", 1));
    options.target_accuracy_fraction = target;
    options.seed = seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::sketch::RandSvdPca>(engine, options));
  }
  if (algorithm == "spca_sparse") {
    spca::core::SpcaOptions options;
    options.num_components = d;
    options.max_iterations = iterations;
    options.l1_threshold = args.GetDouble("--l1-threshold", 0.1);
    options.error_sample_rows = 1000;
    options.target_accuracy_fraction = target;
    options.seed = seed;
    return std::unique_ptr<spca::core::Solver>(
        std::make_unique<spca::core::Spca>(engine, options));
  }
  return Status::InvalidArgument("unknown --algorithm " + algorithm);
}

StatusOr<spca::core::PcaModel> RunAlgorithm(Args args,
                                            spca::dist::Engine* engine,
                                            const spca::dist::DistMatrix& y) {
  // Checkpoint/restart (sPCA only): the checkpoint file is a normal SPCM
  // model plus an .sstat sidecar of resume state, overwritten after every
  // EM iteration. --resume warm-starts from it and runs only the remaining
  // iterations; sidecar step numbering stays global across restarts.
  const bool resume = args.Has("--resume");
  const bool checkpointing = args.Has("--checkpoint-dir");
  const std::string algorithm = args.Get("--algorithm", "spca");
  std::string checkpoint_file;
  if (checkpointing || resume) {
    if (algorithm != "spca" && algorithm != "rand_svd" &&
        algorithm != "spca_sparse") {
      return Status::InvalidArgument(
          "--checkpoint-dir/--resume support only --algorithm spca, "
          "rand_svd or spca_sparse");
    }
    if (!checkpointing) {
      return Status::InvalidArgument("--resume needs --checkpoint-dir");
    }
    checkpoint_file = args.Get("--checkpoint-dir", "") + "/checkpoint.spcm";
  }
  uint64_t base_step = 0;
  std::optional<spca::serve::LoadedCheckpoint> loaded;
  if (resume) {
    auto checkpoint = spca::serve::LoadCheckpoint(checkpoint_file);
    if (!checkpoint.ok()) return checkpoint.status();
    loaded = std::move(checkpoint).value();
    base_step = loaded->state.step;
    // Remaining-work math: spca/spca_sparse checkpoint after each EM
    // iteration out of --iterations; rand_svd after each sketch round out
    // of --power-iters + 1 (the first round is the single data pass).
    const bool rounds = algorithm == "rand_svd";
    const long total = rounds ? args.GetInt("--power-iters", 1) + 1
                              : args.GetInt("--iterations", 10);
    std::printf("resuming %s from %s %llu of %ld\n", checkpoint_file.c_str(),
                rounds ? "round" : "iteration",
                static_cast<unsigned long long>(base_step), total);
    if (static_cast<long>(base_step) >= total) {
      std::printf("checkpoint already complete; nothing to run\n");
      return std::move(loaded->model);
    }
    if (rounds) {
      args.values["--power-iters"] =
          std::to_string(total - static_cast<long>(base_step) - 1);
    } else {
      args.values["--iterations"] =
          std::to_string(total - static_cast<long>(base_step));
    }
  }

  auto solver = MakeSolver(args, engine);
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
    if (!resume) return spca::core::RunSolver(solver.value().get(), y, fit);
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
  if (algorithm == "spca") {
    std::printf("sPCA: %d iterations", result.value().iterations_run);
    if (!result.value().trace.empty()) {
      std::printf(", final accuracy %.1f%% of ideal",
                  result.value().trace.back().accuracy_percent);
    }
    std::printf("\n");
  } else if (algorithm == "mllib") {
    std::printf("MLlib-PCA: driver held %s\n",
                spca::HumanBytes(
                    static_cast<double>(result.value().driver_bytes))
                    .c_str());
  } else if (algorithm == "mahout") {
    std::printf("Mahout-PCA (SSVD): %d rounds\n",
                result.value().iterations_run);
  } else if (algorithm == "rand_svd") {
    std::printf("RandSVD-PCA: %d sketch rounds", result.value().iterations_run);
    if (!result.value().trace.empty()) {
      std::printf(", final accuracy %.1f%% of ideal",
                  result.value().trace.back().accuracy_percent);
    }
    std::printf("\n");
  } else if (algorithm == "spca_sparse") {
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
int WriteModelOutputs(const Args& args, const spca::core::PcaModel& model,
                      const std::string& fault_meta = std::string()) {
  if (args.Has("--output")) {
    const Status status = spca::workload::SaveDenseText(
        model.components, args.Get("--output", ""));
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.Get("--output", "").c_str());
  }
  if (args.Has("--output-bin")) {
    const Status status = spca::workload::SaveDenseBinary(
        model.components, args.Get("--output-bin", ""));
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.Get("--output-bin", "").c_str());
  }
  if (args.Has("--save-model")) {
    const std::string path = args.Get("--save-model", "");
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
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n%s", args.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  if (args->Has("--help") || argc == 1) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  if (args->Has("--load-model")) {
    // Serving path: no fit, no engine — load the persisted model and run
    // the output/export flags against it.
    auto model = spca::serve::LoadModel(args->Get("--load-model", ""));
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded model %s: %zu x %zu, noise variance %.6g\n",
                args->Get("--load-model", "").c_str(), model->input_dim(),
                model->num_components(), model->noise_variance);
    return WriteModelOutputs(*args, model.value());
  }

  const size_t partitions = args->GetInt("--partitions", 16);
  auto matrix = LoadInput(*args, partitions);
  if (!matrix.ok()) {
    std::fprintf(stderr, "error: %s\n", matrix.status().ToString().c_str());
    return 1;
  }
  std::printf("matrix: %zu x %zu, %zu stored entries (%s)\n",
              matrix->rows(), matrix->cols(), matrix->StoredEntries(),
              spca::HumanBytes(static_cast<double>(matrix->ByteSize()))
                  .c_str());

  spca::dist::ClusterSpec spec;
  spec.num_nodes = static_cast<int>(args->GetInt("--nodes", 8));

  spca::dist::FaultSpec fault_spec;
  fault_spec.task_failure_probability =
      args->GetDouble("--fault-rate", args->GetDouble("--failures", 0.0));
  fault_spec.straggler_probability = args->GetDouble("--straggler-rate", 0.0);
  fault_spec.straggler_slowdown =
      args->GetDouble("--straggler-slowdown", fault_spec.straggler_slowdown);
  fault_spec.max_task_attempts =
      1 + static_cast<int>(args->GetInt("--max-retries", 3));
  fault_spec.retry_backoff_sec = args->GetDouble("--retry-backoff", 0.0);
  fault_spec.seed = static_cast<uint64_t>(
      args->GetInt("--fault-seed", static_cast<long>(fault_spec.seed)));
  fault_spec.node_failure_probability =
      args->GetDouble("--correlated-faults", 0.0);
  fault_spec.num_workers = static_cast<int>(args->GetInt(
      "--fault-workers", static_cast<long>(fault_spec.num_workers)));
  fault_spec.speculation.enabled = args->Has("--speculation");
  fault_spec.speculation.relaunch_delay_factor = args->GetDouble(
      "--speculation-delay", fault_spec.speculation.relaunch_delay_factor);
  fault_spec.speculation.min_slowdown = args->GetDouble(
      "--speculation-min-slowdown", fault_spec.speculation.min_slowdown);
  if (fault_spec.task_failure_probability < 0.0 ||
      fault_spec.task_failure_probability >= 1.0 ||
      fault_spec.straggler_probability < 0.0 ||
      fault_spec.straggler_probability > 1.0 ||
      fault_spec.node_failure_probability < 0.0 ||
      fault_spec.node_failure_probability >= 1.0) {
    std::fprintf(stderr,
                 "error: --fault-rate and --correlated-faults must be in "
                 "[0, 1) and --straggler-rate in [0, 1]\n");
    return 2;
  }
  if (fault_spec.straggler_slowdown < 1.0 ||
      fault_spec.max_task_attempts < 1 || fault_spec.retry_backoff_sec < 0.0) {
    std::fprintf(stderr,
                 "error: --straggler-slowdown must be >= 1, --max-retries and "
                 "--retry-backoff non-negative\n");
    return 2;
  }
  if (fault_spec.num_workers < 1 ||
      fault_spec.speculation.relaunch_delay_factor <= 0.0 ||
      fault_spec.speculation.min_slowdown <= 1.0) {
    std::fprintf(stderr,
                 "error: --fault-workers must be >= 1, --speculation-delay "
                 "> 0, --speculation-min-slowdown > 1\n");
    return 2;
  }
  const spca::dist::FaultPlan fault_plan(fault_spec);
  const bool replay_faults_only = args->Has("--replay-faults");
  if (replay_faults_only && !args->Has("--replay-rows")) {
    std::fprintf(stderr, "error: --replay-faults requires --replay-rows\n");
    return 2;
  }

  const std::string platform = args->Get("--platform", "spark");
  const spca::dist::EngineMode mode =
      platform == "mapreduce" ? spca::dist::EngineMode::kMapReduce
                              : spca::dist::EngineMode::kSpark;
  spca::obs::Registry registry;
  const long flush_every = args->GetInt(
      "--flush-every",
      static_cast<long>(spca::obs::TraceStreamer::kDefaultFlushEveryJobs));
  if (flush_every <= 0) {
    std::fprintf(stderr, "error: --flush-every must be positive\n");
    return 2;
  }
  spca::obs::TraceStreamer streamer(&registry,
                                    static_cast<size_t>(flush_every));
  if (args->Has("--trace-stream")) {
    const Status status = streamer.Open(args->Get("--trace-stream", ""));
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  spca::dist::Engine engine(spec, mode, &registry);
  if (fault_plan.active() && !replay_faults_only) {
    engine.SetFaultPlan(fault_plan);
  }

  // Input sparsification composes with any algorithm: replace the matrix
  // with its seeded keep/reweight sample before the fit sees it.
  const double sparsify_keep = args->GetDouble("--sparsify-keep", 0.0);
  if (args->Has("--sparsify-keep")) {
    if (!(sparsify_keep > 0.0 && sparsify_keep <= 1.0)) {
      std::fprintf(stderr, "error: --sparsify-keep must be in (0, 1]\n");
      return 2;
    }
    spca::sketch::SparsifierOptions sparsify;
    sparsify.keep_probability = sparsify_keep;
    sparsify.seed = static_cast<uint64_t>(args->GetInt("--seed", 1));
    matrix.value() =
        spca::sketch::Sparsifier(sparsify).Apply(matrix.value(), &registry);
    std::printf("sparsified input: keep %.3g -> %zu stored entries (%s)\n",
                sparsify_keep, matrix->StoredEntries(),
                spca::HumanBytes(static_cast<double>(matrix->ByteSize()))
                    .c_str());
  }

  auto model = RunAlgorithm(*args, &engine, matrix.value());
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
  std::printf("communication: %s\n", engine.stats().ToString().c_str());
  std::string fault_meta;
  if (fault_plan.active() && !replay_faults_only) {
    const spca::dist::CommStats& stats = engine.stats();
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
        static_cast<unsigned long long>(fault_spec.seed),
        fault_spec.task_failure_probability,
        fault_spec.straggler_probability);
    if (fault_spec.node_failure_probability > 0.0) {
      std::printf("node losses: %llu tasks killed by correlated failures "
                  "(rate %.3g, %d workers)\n",
                  node_loss_tasks, fault_spec.node_failure_probability,
                  fault_spec.num_workers);
    }
    if (fault_spec.speculation.enabled) {
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
        static_cast<unsigned long long>(fault_spec.seed),
        fault_spec.task_failure_probability,
        fault_spec.straggler_probability, fault_spec.straggler_slowdown,
        fault_spec.max_task_attempts - 1, fault_spec.retry_backoff_sec,
        fault_spec.node_failure_probability, fault_spec.num_workers,
        fault_spec.speculation.enabled ? 1 : 0,
        fault_spec.speculation.relaunch_delay_factor,
        fault_spec.speculation.min_slowdown,
        static_cast<unsigned long long>(stats.task_retries),
        static_cast<unsigned long long>(stats.straggler_tasks),
        node_loss_tasks, speculation_launched, speculation_copies_won,
        speculation_wasted_flops, args->Get("--algorithm", "spca").c_str());
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
  const std::string algorithm = args->Get("--algorithm", "spca");
  if (algorithm == "rand_svd" || algorithm == "spca_sparse" ||
      args->Has("--sparsify-keep")) {
    char sketch_meta[512];
    const int sketch_len = std::snprintf(
        sketch_meta, sizeof(sketch_meta),
        "solver=%s\n"
        "sketch_dim=%ld\n"
        "power_iters=%ld\n"
        "l1_threshold=%.17g\n"
        "sparsify_keep=%.17g\n"
        "seed=%ld\n",
        algorithm.c_str(), args->GetInt("--sketch-dim", 0),
        args->GetInt("--power-iters", 1),
        args->GetDouble("--l1-threshold", 0.1), sparsify_keep,
        args->GetInt("--seed", 1));
    if (sketch_len < 0 ||
        static_cast<size_t>(sketch_len) >= sizeof(sketch_meta)) {
      std::fprintf(stderr,
                   "error: sketch metadata truncated (%d bytes needed)\n",
                   sketch_len);
      return 1;
    }
    fault_meta += sketch_meta;
  }

  if (args->Has("--replay-rows")) {
    auto row_counts = ParseRowCounts(args->Get("--replay-rows", ""));
    if (!row_counts.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   row_counts.status().ToString().c_str());
      return 2;
    }
    std::printf(
        "\nreplayed at other row counts (cost model; per-row work and data "
        "scaled linearly, driver algebra and broadcasts held fixed%s):\n",
        replay_faults_only ? "; fault plan injected into each replay" : "");
    double cursor = engine.SimulatedSeconds();
    for (const double rows : row_counts.value()) {
      const double scale = rows / static_cast<double>(matrix->rows());
      char label[48];
      std::snprintf(label, sizeof(label), "%.0frows", rows);
      const double seconds = spca::dist::ReplayRun(
          engine.traces(), engine.stats(), spec, mode,
          [scale](const spca::dist::JobTrace&) {
            spca::dist::ReplayScales scales;
            scales.flops = scale;
            scales.input_bytes = scale;
            scales.intermediate_bytes = scale;
            scales.result_bytes = 1.0;
            return scales;
          },
          &registry, label, cursor,
          replay_faults_only ? &fault_plan : nullptr);
      cursor += seconds;
      std::printf("  %14.0f rows: %s\n", rows,
                  spca::HumanSeconds(seconds).c_str());
    }
  }

  if (const int rc = WriteModelOutputs(*args, model.value(), fault_meta);
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
  if (args->Has("--metrics")) {
    std::printf("\n%s", spca::obs::MetricsTable(registry).c_str());
  }
  if (args->Has("--trace-out")) {
    const std::string path = args->Get("--trace-out", "");
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
