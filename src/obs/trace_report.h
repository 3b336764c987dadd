#ifndef SPCA_OBS_TRACE_REPORT_H_
#define SPCA_OBS_TRACE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_file.h"

namespace spca::obs {

/// Regenerates the Figure 4/5 accuracy-versus-time table from a trace file
/// alone: for every `spca.fit`, `randsvd.fit` or `ssvd.fit` span, in trace
/// order and headed by its name, its `spca.em_iteration` (or
/// `*.power_round`) children are listed in iteration (round) order as
///   "  %10.1f  %6.2f\n"  <- (sim_seconds, accuracy_percent)
/// — the exact row format bench_fig4/bench_fig5 print, so a run captured
/// with --trace-out or --trace-stream reproduces the benchmark table
/// byte-for-byte. Iterations without accuracy attributes (runs that did not
/// request an accuracy trace) are skipped.
std::string AccuracyTimeReport(const ParsedTrace& trace);

/// Per-phase simulated-seconds breakdown. Prefers the engine.phase.*
/// counters appended by the streaming exporter; falls back to aggregating
/// job spans (category "job") by their `phase` attribute when the trace
/// carries spans only (--trace-out files).
std::string PhaseBreakdownReport(const ParsedTrace& trace);

/// Result of comparing two traces' per-phase simulated seconds
/// (trace_report --diff). A phase present in only one trace counts as 0
/// seconds in the other.
struct PhaseDiffResult {
  /// Rendered comparison table: phase, A sim_s, B sim_s, delta_s, delta%.
  std::string table;
  /// max over phases of |B - A| / A; infinity when a phase went from zero
  /// seconds to non-zero. 0 for identical traces. The `total` row is not
  /// included (per-phase regressions must not cancel out).
  double max_relative_delta = 0.0;
  /// Phase attaining max_relative_delta (empty when both traces are empty).
  std::string worst_phase;
};

/// Compares per-phase sim-seconds of two traces (same extraction rules as
/// PhaseBreakdownReport). Used as a regression gate: the trace_report tool
/// exits non-zero when max_relative_delta exceeds its --tolerance.
PhaseDiffResult PhaseBreakdownDiff(const ParsedTrace& trace_a,
                                   const ParsedTrace& trace_b);

/// Text flame graph over the simulated-time track (trace_report --flame).
/// Every sim-track span is merged into a tree node keyed by its full name
/// path — the span names from its root ancestor down to itself, following
/// parent links across tracks (a sim span under a wall-track parent keeps
/// the wall frame in its path so nesting stays visible). Siblings with the
/// same name merge: durations sum, and frames seen more than once get an
/// " xN" count suffix. Rendered depth-first, children ordered by total
/// sim-seconds descending then name ascending, with two columns per frame:
/// total sim-seconds and self sim-seconds (total minus merged children,
/// clamped at zero — a wall-track frame on the path contributes no time of
/// its own).
std::string FlameGraphReport(const ParsedTrace& trace);

/// One solver's summary row on the Figure 4/5 cost-crossover map: where it
/// landed on the axes the paper trades off — simulated cluster time and
/// shipped (intermediate + result) bytes — at the accuracy it reached.
/// Every numeric field is a double because that is what a trace file
/// round-trips (JSON has one number type); counts are integral-valued.
struct CrossoverRow {
  std::string solver;
  double rows = 0.0;
  double cols = 0.0;
  double components = 0.0;
  double iterations = 0.0;
  double sim_seconds = 0.0;
  double accuracy_percent = 0.0;
  double shipped_bytes = 0.0;
  double jobs = 0.0;
};

/// Renders the crossover table — one line per row, fixed snprintf format.
/// bench_sketch prints exactly this from its in-memory rows, so the table
/// regenerated from its trace file (CrossoverReport) matches byte for byte.
std::string CrossoverTable(const std::vector<CrossoverRow>& rows);

/// Regenerates the crossover table from a trace file alone: every
/// `solver.fit` span of category "crossover" (written by
/// AppendCrossoverSpan) becomes one row, in span-id order.
std::string CrossoverReport(const ParsedTrace& trace);

/// Records one crossover row as a zero-duration summary span so a trace
/// file carries the full table. Integral-valued fields are stored as
/// doubles on purpose: JSON numbers come back as doubles, and byte-identity
/// of the regenerated table only needs the doubles to round-trip (which
/// %.17g guarantees). Returns the span id.
uint64_t AppendCrossoverSpan(Registry* registry, const CrossoverRow& row);

}  // namespace spca::obs

#endif  // SPCA_OBS_TRACE_REPORT_H_
