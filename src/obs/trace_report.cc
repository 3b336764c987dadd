#include "obs/trace_report.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spca::obs {
namespace {

constexpr std::string_view kPhaseCounterPrefix = "engine.phase.";
constexpr std::string_view kSimSecondsSuffix = ".sim_seconds";
constexpr std::string_view kJobsSuffix = ".jobs";

struct PhaseTotals {
  uint64_t jobs = 0;
  double sim_seconds = 0.0;
};

std::string PhaseTable(const std::map<std::string, PhaseTotals>& phases) {
  std::string out = "Per-phase simulated time (phase, jobs, sim_s):\n";
  double total = 0.0;
  uint64_t total_jobs = 0;
  char line[160];
  for (const auto& [phase, totals] : phases) {
    std::snprintf(line, sizeof(line), "  %-24s %6llu %14.3f\n", phase.c_str(),
                  static_cast<unsigned long long>(totals.jobs),
                  totals.sim_seconds);
    out += line;
    total += totals.sim_seconds;
    total_jobs += totals.jobs;
  }
  std::snprintf(line, sizeof(line), "  %-24s %6llu %14.3f\n", "total",
                static_cast<unsigned long long>(total_jobs), total);
  out += line;
  return out;
}

/// The phase -> totals extraction shared by the breakdown report and the
/// diff: engine.phase.* counters when the trace carries metrics, else job
/// spans aggregated by their phase attribute.
std::map<std::string, PhaseTotals> CollectPhaseTotals(
    const ParsedTrace& trace) {
  std::map<std::string, PhaseTotals> phases;

  // Streaming traces carry the final engine.phase.* counters; those are
  // authoritative (they include jobs whose spans predate any reset).
  for (const auto& [name, value] : trace.counters) {
    if (name.rfind(kPhaseCounterPrefix, 0) != 0) continue;
    const std::string_view rest =
        std::string_view(name).substr(kPhaseCounterPrefix.size());
    if (rest.size() > kSimSecondsSuffix.size() &&
        rest.substr(rest.size() - kSimSecondsSuffix.size()) ==
            kSimSecondsSuffix) {
      const std::string phase(
          rest.substr(0, rest.size() - kSimSecondsSuffix.size()));
      phases[phase].sim_seconds = value;
    } else if (rest.size() > kJobsSuffix.size() &&
               rest.substr(rest.size() - kJobsSuffix.size()) == kJobsSuffix) {
      const std::string phase(rest.substr(0, rest.size() - kJobsSuffix.size()));
      phases[phase].jobs = static_cast<uint64_t>(value);
    }
  }
  if (!phases.empty()) return phases;

  // Chrome traces carry spans only: aggregate job spans by phase attribute.
  for (const ParsedSpan& span : trace.spans) {
    if (span.category != "job") continue;
    const AttrValue* phase_attr = span.FindAttribute("phase");
    std::string phase = "(none)";
    if (const auto* s = phase_attr != nullptr
                            ? std::get_if<std::string>(phase_attr)
                            : nullptr) {
      phase = *s;
    }
    PhaseTotals& totals = phases[phase];
    ++totals.jobs;
    totals.sim_seconds += span.AttributeNumberOr("sim_seconds", 0.0);
  }
  return phases;
}

/// The solvers whose iteration spans carry accuracy_percent and
/// sim_seconds (written by core::AccuracyTracker), and the attribute that
/// orders each one's iterations.
struct AccuracyTracedSolver {
  std::string_view fit;
  std::string_view iteration;
  std::string_view order;
};

constexpr AccuracyTracedSolver kAccuracyTracedSolvers[] = {
    {"spca.fit", "spca.em_iteration", "iteration"},
    {"randsvd.fit", "randsvd.power_round", "round"},
    {"ssvd.fit", "ssvd.power_round", "round"},
};

}  // namespace

std::string AccuracyTimeReport(const ParsedTrace& trace) {
  std::string out;
  // Fits in trace order; a trace may hold several fits, of one solver or
  // of several (the Figure 5 benchmark runs three against one registry).
  for (const ParsedSpan& fit : trace.spans) {
    const AccuracyTracedSolver* solver = nullptr;
    for (const AccuracyTracedSolver& candidate : kAccuracyTracedSolvers) {
      if (fit.name == candidate.fit) solver = &candidate;
    }
    if (solver == nullptr) continue;
    std::vector<const ParsedSpan*> iterations;
    for (const ParsedSpan* child : trace.ChildrenOf(fit.id)) {
      if (child->name != solver->iteration) continue;
      if (child->FindAttribute("accuracy_percent") == nullptr) continue;
      iterations.push_back(child);
    }
    std::sort(iterations.begin(), iterations.end(),
              [solver](const ParsedSpan* a, const ParsedSpan* b) {
                return a->AttributeNumberOr(solver->order, 0) <
                       b->AttributeNumberOr(solver->order, 0);
              });
    if (iterations.empty()) continue;

    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s #%llu rows=%.0f cols=%.0f components=%.0f "
                  "(time_s, accuracy_%%):\n",
                  fit.name.c_str(), static_cast<unsigned long long>(fit.id),
                  fit.AttributeNumberOr("rows", 0),
                  fit.AttributeNumberOr("cols", 0),
                  fit.AttributeNumberOr("components", 0));
    out += line;
    for (const ParsedSpan* iter : iterations) {
      // Byte-identical to the PrintSeries rows in bench_fig4/bench_fig5.
      std::snprintf(line, sizeof(line), "  %10.1f  %6.2f\n",
                    iter->AttributeNumberOr("sim_seconds", 0.0),
                    iter->AttributeNumberOr("accuracy_percent", 0.0));
      out += line;
    }
  }
  if (out.empty()) {
    out = "no spca.fit, randsvd.fit or ssvd.fit spans with accuracy-traced "
          "iterations in this file\n";
  }
  return out;
}

std::string PhaseBreakdownReport(const ParsedTrace& trace) {
  const std::map<std::string, PhaseTotals> phases = CollectPhaseTotals(trace);
  if (phases.empty()) return "no job spans or phase counters in this file\n";
  return PhaseTable(phases);
}

PhaseDiffResult PhaseBreakdownDiff(const ParsedTrace& trace_a,
                                   const ParsedTrace& trace_b) {
  const std::map<std::string, PhaseTotals> a = CollectPhaseTotals(trace_a);
  const std::map<std::string, PhaseTotals> b = CollectPhaseTotals(trace_b);

  std::map<std::string, std::pair<double, double>> merged;  // phase -> (A, B)
  for (const auto& [phase, totals] : a) merged[phase].first = totals.sim_seconds;
  for (const auto& [phase, totals] : b) {
    merged[phase].second = totals.sim_seconds;
  }

  PhaseDiffResult result;
  result.table =
      "Per-phase sim-seconds diff (phase, A_s, B_s, delta_s, delta_%):\n";
  double total_a = 0.0;
  double total_b = 0.0;
  char line[200];
  for (const auto& [phase, seconds] : merged) {
    const double sec_a = seconds.first;
    const double sec_b = seconds.second;
    const double delta = sec_b - sec_a;
    double relative;
    if (sec_a > 0.0) {
      relative = std::abs(delta) / sec_a;
    } else {
      relative = sec_b > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    }
    if (relative > result.max_relative_delta) {
      result.max_relative_delta = relative;
      result.worst_phase = phase;
    }
    if (std::isinf(relative)) {
      std::snprintf(line, sizeof(line), "  %-24s %12.3f %12.3f %+11.3f %8s\n",
                    phase.c_str(), sec_a, sec_b, delta, "inf");
    } else {
      std::snprintf(line, sizeof(line), "  %-24s %12.3f %12.3f %+11.3f %+8.2f\n",
                    phase.c_str(), sec_a, sec_b, delta, 100.0 * relative *
                        (delta < 0.0 ? -1.0 : 1.0));
    }
    result.table += line;
    total_a += sec_a;
    total_b += sec_b;
  }
  std::snprintf(line, sizeof(line), "  %-24s %12.3f %12.3f %+11.3f\n", "total",
                total_a, total_b, total_b - total_a);
  result.table += line;
  return result;
}

namespace {

/// One merged frame of the flame graph: all sim-track spans sharing a full
/// name path collapse into a single node.
struct FlameNode {
  double total_sim_seconds = 0.0;
  uint64_t count = 0;
  std::map<std::string, FlameNode> children;
};

void RenderFlameNode(const std::string& name, const FlameNode& node, int depth,
                     std::string* out) {
  double child_seconds = 0.0;
  for (const auto& [child_name, child] : node.children) {
    (void)child_name;
    child_seconds += child.total_sim_seconds;
  }
  const double self_seconds =
      std::max(node.total_sim_seconds - child_seconds, 0.0);

  std::string label(static_cast<size_t>(2 * depth + 2), ' ');
  label += name;
  if (node.count > 1) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), " x%llu",
                  static_cast<unsigned long long>(node.count));
    label += suffix;
  }
  char line[192];
  std::snprintf(line, sizeof(line), "%-44s %11.3f %11.3f\n", label.c_str(),
                node.total_sim_seconds, self_seconds);
  *out += line;

  std::vector<std::pair<const std::string*, const FlameNode*>> ordered;
  ordered.reserve(node.children.size());
  for (const auto& [child_name, child] : node.children) {
    ordered.emplace_back(&child_name, &child);
  }
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    if (a.second->total_sim_seconds != b.second->total_sim_seconds) {
      return a.second->total_sim_seconds > b.second->total_sim_seconds;
    }
    return *a.first < *b.first;
  });
  for (const auto& [child_name, child] : ordered) {
    RenderFlameNode(*child_name, *child, depth + 1, out);
  }
}

}  // namespace

std::string FlameGraphReport(const ParsedTrace& trace) {
  std::string out =
      "Flame graph (sim-track spans; total sim_s, self sim_s):\n";

  std::map<uint64_t, const ParsedSpan*> by_id;
  for (const ParsedSpan& span : trace.spans) by_id[span.id] = &span;

  FlameNode root;
  size_t sim_spans = 0;
  for (const ParsedSpan& span : trace.spans) {
    if (span.track != Track::kSim) continue;
    ++sim_spans;
    // Name path from the root ancestor down to this span; parents on any
    // track contribute their name (but only sim spans contribute time).
    std::vector<const std::string*> path;
    const ParsedSpan* cursor = &span;
    while (cursor != nullptr && path.size() <= trace.spans.size()) {
      path.push_back(&cursor->name);
      if (cursor->parent_id == 0) break;
      const auto parent = by_id.find(cursor->parent_id);
      cursor = parent != by_id.end() ? parent->second : nullptr;
    }
    std::reverse(path.begin(), path.end());
    FlameNode* node = &root;
    for (const std::string* name : path) node = &node->children[*name];
    node->total_sim_seconds += span.dur_sec;
    ++node->count;
  }

  if (sim_spans == 0) {
    out += "  (no sim-track spans)\n";
    return out;
  }
  std::vector<std::pair<const std::string*, const FlameNode*>> roots;
  roots.reserve(root.children.size());
  for (const auto& [name, node] : root.children) {
    roots.emplace_back(&name, &node);
  }
  std::sort(roots.begin(), roots.end(), [](const auto& a, const auto& b) {
    if (a.second->total_sim_seconds != b.second->total_sim_seconds) {
      return a.second->total_sim_seconds > b.second->total_sim_seconds;
    }
    return *a.first < *b.first;
  });
  for (const auto& [name, node] : roots) {
    RenderFlameNode(*name, *node, 0, &out);
  }
  return out;
}

std::string CrossoverTable(const std::vector<CrossoverRow>& rows) {
  std::string out =
      "Cost crossover map (solver, rows, cols, d, iters, sim_s, acc_%, "
      "shipped_bytes, jobs):\n";
  char line[224];
  for (const CrossoverRow& row : rows) {
    std::snprintf(
        line, sizeof(line),
        "  %-18s %9.0f %7.0f %4.0f %6.0f %12.3f %7.2f %14.0f %6.0f\n",
        row.solver.c_str(), row.rows, row.cols, row.components, row.iterations,
        row.sim_seconds, row.accuracy_percent, row.shipped_bytes, row.jobs);
    out += line;
  }
  return out;
}

std::string CrossoverReport(const ParsedTrace& trace) {
  std::vector<CrossoverRow> rows;
  for (const ParsedSpan* span : trace.SpansNamed("solver.fit")) {
    if (span->category != "crossover") continue;
    CrossoverRow row;
    const AttrValue* solver = span->FindAttribute("solver");
    const auto* name =
        solver != nullptr ? std::get_if<std::string>(solver) : nullptr;
    row.solver = name != nullptr ? *name : "(unknown)";
    row.rows = span->AttributeNumberOr("rows", 0.0);
    row.cols = span->AttributeNumberOr("cols", 0.0);
    row.components = span->AttributeNumberOr("components", 0.0);
    row.iterations = span->AttributeNumberOr("iterations", 0.0);
    row.sim_seconds = span->AttributeNumberOr("sim_seconds", 0.0);
    row.accuracy_percent = span->AttributeNumberOr("accuracy_percent", 0.0);
    row.shipped_bytes = span->AttributeNumberOr("shipped_bytes", 0.0);
    row.jobs = span->AttributeNumberOr("jobs", 0.0);
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return "no solver.fit crossover spans in this file\n";
  return CrossoverTable(rows);
}

uint64_t AppendCrossoverSpan(Registry* registry, const CrossoverRow& row) {
  return registry->AddCompleteSpan(
      "solver.fit", "crossover", Track::kWall, /*start_sec=*/0.0,
      /*duration_sec=*/0.0, /*parent_id=*/0,
      {{"solver", row.solver},
       {"rows", row.rows},
       {"cols", row.cols},
       {"components", row.components},
       {"iterations", row.iterations},
       {"sim_seconds", row.sim_seconds},
       {"accuracy_percent", row.accuracy_percent},
       {"shipped_bytes", row.shipped_bytes},
       {"jobs", row.jobs}});
}

}  // namespace spca::obs
