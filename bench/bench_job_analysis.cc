// Reproduces the per-job analysis of Section 5.2 ("Analysis of sPCA and
// Mahout-PCA Jobs"): for sPCA-MapReduce and Mahout-PCA, the running time
// and mapper-output volume of each distributed job, on the Bio-Text and
// the (larger, sparser) Tweets configurations.
//
// Paper shapes: switching from Bio-Text to the much larger Tweets dataset
// increases sPCA's job durations and mapper outputs only modestly (the
// YtX mapper output grows 2.3x — it is a D x d partial, independent of
// the row count), while Mahout-PCA's Bt-class jobs blow up (654x job
// time, 15.6x mapper output, 4 TB at full scale) because they materialize
// row-count-proportional data.

#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "common/format.h"
#include "core/spca.h"
#include "dist/engine.h"

namespace spca::bench {
namespace {

struct JobSummary {
  size_t count = 0;
  double seconds = 0.0;
  double output_bytes = 0.0;  // mapper output: intermediate + result
};

using JobTable = std::map<std::string, JobSummary>;

JobTable Summarize(const std::vector<dist::JobTrace>& traces) {
  JobTable table;
  for (const auto& trace : traces) {
    JobSummary& row = table[trace.name];
    row.count += 1;
    row.seconds += trace.stats.simulated_seconds;
    row.output_bytes += static_cast<double>(trace.stats.intermediate_bytes +
                                            trace.stats.result_bytes);
  }
  return table;
}

JobTable RunSpcaJobs(const dist::DistMatrix& matrix,
                     obs::Registry* registry) {
  dist::Engine engine(PaperSpec(), dist::EngineMode::kMapReduce, registry);
  core::SpcaOptions options;
  options.num_components = 50;
  options.max_iterations = 5;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  options.driver_moments = false;  // Algorithm 4's job sequence
  auto result = core::Spca(&engine, options).Solve(matrix);
  SPCA_CHECK(result.ok());
  return Summarize(engine.traces());
}

JobTable RunMahoutJobs(const dist::DistMatrix& matrix,
                       obs::Registry* registry) {
  dist::Engine engine(PaperSpec(), dist::EngineMode::kMapReduce, registry);
  baselines::SsvdOptions options;
  options.num_components = 50;
  options.max_power_iterations = 1;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  auto result = baselines::SsvdPca(&engine, options).Solve(matrix);
  SPCA_CHECK(result.ok());
  return Summarize(engine.traces());
}

void PrintComparison(const char* title, const JobTable& biotext,
                     const JobTable& tweets) {
  std::printf("%s\n", title);
  std::printf("  %-22s %5s | %10s %12s | %10s %12s | %8s %8s\n", "job",
              "runs", "BioText_s", "BioText_out", "Tweets_s", "Tweets_out",
              "time_x", "out_x");
  for (const auto& [name, bio_row] : biotext) {
    auto it = tweets.find(name);
    if (it == tweets.end()) continue;
    const JobSummary& tweet_row = it->second;
    std::printf("  %-22s %5zu | %10.1f %12s | %10.1f %12s | %7.1fx %7.1fx\n",
                name.c_str(), bio_row.count, bio_row.seconds,
                HumanBytes(bio_row.output_bytes).c_str(), tweet_row.seconds,
                HumanBytes(tweet_row.output_bytes).c_str(),
                tweet_row.seconds / std::max(1e-9, bio_row.seconds),
                tweet_row.output_bytes /
                    std::max(1.0, bio_row.output_bytes));
  }
  std::printf("\n");
}

void Run(obs::Registry* registry) {
  PrintHeader("Section 5.2: per-job analysis, Bio-Text -> Tweets",
              "Per-job simulated time and mapper output, sPCA-MapReduce and "
              "Mahout-PCA, d = 50, 5 sPCA iterations / 1 SSVD power round");

  const workload::Dataset biotext = workload::MakeDataset(
      workload::DatasetKind::kBioText, ScaledRows(8000), 4000, 16);
  const workload::Dataset tweets = workload::MakeDataset(
      workload::DatasetKind::kTweets, ScaledRows(160000), 7150, 16);
  std::printf("Bio-Text: %s (%zu stored entries); Tweets: %s (%zu stored "
              "entries, %.0fx more rows)\n\n",
              SizeLabel(biotext.matrix.rows(), biotext.matrix.cols()).c_str(),
              biotext.matrix.StoredEntries(),
              SizeLabel(tweets.matrix.rows(), tweets.matrix.cols()).c_str(),
              tweets.matrix.StoredEntries(),
              static_cast<double>(tweets.matrix.rows()) /
                  biotext.matrix.rows());

  PrintComparison("sPCA-MapReduce jobs:", RunSpcaJobs(biotext.matrix, registry),
                  RunSpcaJobs(tweets.matrix, registry));
  PrintComparison("Mahout-PCA jobs:", RunMahoutJobs(biotext.matrix, registry),
                  RunMahoutJobs(tweets.matrix, registry));

  std::printf(
      "Expected shapes (paper): sPCA's YtX mapper output grows only ~2.3x "
      "from Bio-Text to Tweets (D x d partials, independent of rows), while "
      "Mahout's Q/QR-class jobs grow with the row count — the source of its "
      "multi-terabyte mapper outputs at full scale.\n");
}

}  // namespace
}  // namespace spca::bench

int main(int argc, char** argv) {
  spca::bench::BenchEnv env(argc, argv);
  spca::bench::Run(env.registry());
  return 0;
}
