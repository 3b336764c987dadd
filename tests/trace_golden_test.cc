// Golden-trace regression test: the span *schema* of a fixed-seed sPCA fit
// — every span's name, category, track, and nesting depth, in creation
// order — is compared against a checked-in golden file. Catches accidental
// changes to the instrumentation shape (a renamed span, a lost parent
// link, a phase child emitted on the wrong track) that value-based tests
// cannot see.
//
// To update after an intentional instrumentation change:
//   SPCA_REGENERATE_GOLDEN=1 ./trace_golden_test
// and commit the rewritten tests/golden/spca_trace_schema*.golden files.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/spca.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "obs/export.h"
#include "obs/trace_file.h"
#include "workload/synthetic.h"

namespace spca {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using obs::ParsedSpan;
using obs::ParsedTrace;

std::string SchemaOf(const ParsedTrace& trace) {
  std::string out;
  const std::function<void(uint64_t, int)> visit = [&](uint64_t parent,
                                                       int depth) {
    for (const ParsedSpan* span : trace.ChildrenOf(parent)) {
      out.append(static_cast<size_t>(depth) * 2, ' ');
      out += span->name + " [" + span->category + "] " +
             (span->track == obs::Track::kSim ? "sim" : "wall") + "\n";
      visit(span->id, depth + 1);
    }
  };
  visit(0, 0);
  return out;
}

DistMatrix GoldenInput() {
  workload::BagOfWordsConfig config;
  config.rows = 240;
  config.vocab = 60;
  config.words_per_row = 5;
  config.seed = 5;
  return DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 3);
}

core::SpcaOptions GoldenOptions() {
  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 2;
  options.target_accuracy_fraction = 2.0;  // run both iterations
  options.compute_accuracy_trace = true;
  options.ideal_error_override = 1.0;  // skip the hidden anchor fit
  options.seed = 7;
  return options;
}

// The plain schema of one fit of GoldenInput() with `options`, compared
// against (or, with SPCA_REGENERATE_GOLDEN set, written to) `file`.
void ExpectFitSchemaMatchesGolden(const core::SpcaOptions& options,
                                  const char* file) {
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  engine.SetLocalWorkers(1);  // fully deterministic span creation order
  auto fit = core::Spca(&engine, options).Solve(GoldenInput());
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  auto parsed = obs::ParseTrace(obs::ChromeTraceJson(*engine.registry()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string schema = SchemaOf(parsed.value());
  ASSERT_FALSE(schema.empty());

  const std::string golden_path =
      std::string(SPCA_TEST_SRCDIR) + "/golden/" + file;
  if (std::getenv("SPCA_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << schema;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run with SPCA_REGENERATE_GOLDEN=1 to create)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(schema, golden.str())
      << file << ": trace schema drifted from the checked-in golden; if the "
         "change is intentional, regenerate with SPCA_REGENERATE_GOLDEN=1";
}

// Algorithm 4's job sequence: YtXJob and ss3Job in every iteration.
TEST(TraceGolden, FitSpanSchemaMatchesGolden) {
  core::SpcaOptions options = GoldenOptions();
  options.driver_moments = false;
  ExpectFitSchemaMatchesGolden(options, "spca_trace_schema.golden");
}

// The default fit: one YtXJob per iteration and no ss3Job.
TEST(TraceGolden, DefaultFitSpanSchemaMatchesGolden) {
  const core::SpcaOptions options = GoldenOptions();
  ASSERT_TRUE(options.driver_moments);
  ExpectFitSchemaMatchesGolden(options,
                               "spca_trace_schema_driver_moments.golden");
}

// Same fit with a deterministic FaultPlan active: the schema additionally
// locks the sorted fault.* attribute keys each span carries, so renaming or
// dropping a recovery attribute (fault.retries, fault.backoff_sec, ...)
// breaks the golden. Regenerate tests/golden/spca_trace_schema_faulted.golden
// with SPCA_REGENERATE_GOLDEN=1 after intentional changes.
TEST(TraceGolden, FaultedFitSpanSchemaMatchesGolden) {
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  engine.SetLocalWorkers(1);
  dist::FaultSpec fault_spec;
  fault_spec.seed = 13;
  fault_spec.task_failure_probability = 0.35;
  fault_spec.straggler_probability = 0.3;
  fault_spec.retry_backoff_sec = 0.25;
  engine.SetFaultPlan(dist::FaultPlan(fault_spec));

  core::SpcaOptions options = GoldenOptions();
  options.driver_moments = false;  // Algorithm 4's job sequence
  auto fit = core::Spca(&engine, options).Solve(GoldenInput());
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  auto parsed = obs::ParseTrace(obs::ChromeTraceJson(*engine.registry()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // The plain schema plus, per span, its sorted fault.* attribute keys.
  std::string schema;
  const std::function<void(uint64_t, int)> visit = [&](uint64_t parent,
                                                       int depth) {
    for (const ParsedSpan* span : parsed.value().ChildrenOf(parent)) {
      schema.append(static_cast<size_t>(depth) * 2, ' ');
      schema += span->name + " [" + span->category + "] " +
                (span->track == obs::Track::kSim ? "sim" : "wall");
      std::vector<std::string> fault_keys;
      for (const obs::Attribute& attr : span->attributes) {
        if (attr.key.rfind("fault.", 0) == 0) fault_keys.push_back(attr.key);
      }
      std::sort(fault_keys.begin(), fault_keys.end());
      for (const std::string& key : fault_keys) schema += " " + key;
      schema += "\n";
      visit(span->id, depth + 1);
    }
  };
  visit(0, 0);
  ASSERT_FALSE(schema.empty());
  // Every engine job span must carry the full fault.* attribute set when a
  // plan is active — spot-check before the byte comparison so a failure
  // reads clearly.
  EXPECT_NE(schema.find("fault.retries"), std::string::npos);
  EXPECT_NE(schema.find("fault.backoff_sec"), std::string::npos);

  const std::string golden_path = std::string(SPCA_TEST_SRCDIR) +
                                  "/golden/spca_trace_schema_faulted.golden";
  if (std::getenv("SPCA_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << schema;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run with SPCA_REGENERATE_GOLDEN=1 to create)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(schema, golden.str())
      << "faulted trace schema drifted from the checked-in golden; if the "
         "change is intentional, regenerate with SPCA_REGENERATE_GOLDEN=1";
}

}  // namespace
}  // namespace spca
