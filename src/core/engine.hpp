#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/topk.hpp"
#include "ref/golden_sta.hpp"
#include "timing/constraints.hpp"
#include "timing/graph.hpp"
#include "timing/types.hpp"

namespace insta::analysis {
class LintReport;  // analysis/diagnostics.hpp
}  // namespace insta::analysis

namespace insta::core {

class ScenarioBatch;  // core/scenario_batch.hpp

/// Index of one analysis corner within an engine. Valid ids are
/// [0, num_corners()); kAllCorners broadcasts an annotation to every corner.
using CornerId = std::int32_t;
inline constexpr CornerId kAllCorners = -1;

/// One named analysis corner: a (liberty, POCV) scale set applied to every
/// data-arc delay and startpoint launch arrival cloned from the reference or
/// re-annotated later. delay_scale multiplies arc/launch means, sigma_scale
/// multiplies POCV sigmas; clock-network arrivals, CPPR tables, and
/// endpoint required times are shared across corners (one clock tree, many
/// data-path corners). A scale of exactly 1.0f is a byte-exact passthrough,
/// so the default corner reproduces the single-corner engine bit for bit.
struct CornerSpec {
  std::string name = "default";
  float delay_scale = 1.0f;
  float sigma_scale = 1.0f;
};

/// Configuration of the INSTA engine.
struct EngineOptions {
  /// Number of unique-startpoint arrivals kept per pin/transition.
  /// K=1 disables CPPR handling (the left plot of Fig. 6); K >= the number
  /// of distinct startpoints converging anywhere makes propagation exact.
  int top_k = 32;
  /// LSE temperature (ps) of the backward softmax of Eq. 6. Smaller values
  /// approach the hard max; larger values spread gradient across
  /// sub-critical paths.
  float tau = 10.0f;
  /// Soft-min temperature (ps) across endpoints used for WNS gradient seeds.
  float wns_tau = 10.0f;
  /// Level-parallel execution on the global thread pool.
  bool parallel = true;
  /// Minimum number of work items (level pins, frontier pins, endpoints)
  /// before a loop is offloaded to the thread pool; smaller loops run
  /// inline on the calling thread.
  int parallel_threshold = 512;
  /// Minimum chunk size handed to one worker in the per-level pin kernels.
  int parallel_grain = 128;
  /// Minimum chunk size for endpoint slack evaluation.
  int endpoint_grain = 256;
  /// Also propagate early (minimum) arrivals and evaluate hold checks.
  /// Doubles the Top-K storage. The reference engine must have been built
  /// with the matching GoldenOptions::enable_hold. Off by default: the
  /// paper's experiments are setup-only.
  bool enable_hold = false;
  /// The analysis corners to propagate. Empty (the default) means one
  /// implicit corner {"default", 1.0, 1.0}. All corners propagate in one
  /// level sweep over corner-major Top-K planes; each corner's result is
  /// bit-identical to an independent single-corner engine built with only
  /// that corner. Names must be unique and non-empty; scales finite > 0.
  std::vector<CornerSpec> corners;

  /// Returns one message per invalid field (empty when the options are
  /// usable). Engine's constructor rejects invalid options with the same
  /// messages, so callers that build options from external input (CLI
  /// flags, JSON) can report every problem at once instead of hitting the
  /// first constructor check.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One annotate() call's payload as applied through a Transaction: the
/// targeted corner (kAllCorners for broadcast) and the caller's deltas in
/// the caller's order. Replaying the records of a committed transaction via
/// annotate(deltas, corner) + run_forward_incremental() on an engine in the
/// pre-transaction state reproduces the post-commit state bit for bit —
/// the unit the replication layer ships as a commit delta.
struct AppliedDeltas {
  CornerId corner = kAllCorners;
  std::vector<timing::ArcDelta> deltas;
};

/// Analysis mode of a slack query: late/setup or early/hold.
enum class Mode : std::uint8_t { kSetup, kHold };

/// Aggregate slack metrics of one analysis mode. This is the unit of
/// reporting everywhere: Engine::summary(), ScenarioBatch results, the CLI
/// tables. Comparable with == (the engine's bit-identity guarantees make
/// exact comparison meaningful).
struct SlackSummary {
  double tns = 0.0;      ///< total negative slack, ps
  double wns = 0.0;      ///< worst negative slack, ps (0 if nothing violates)
  int violations = 0;    ///< endpoints with negative slack
  friend bool operator==(const SlackSummary&, const SlackSummary&) = default;
};

/// The delta-maintained slack aggregates of one (corner, mode) over one
/// endpoint slack plane: the state behind Engine::summary(). A full pass
/// builds it with scan(); a sparse pass (and ScenarioBatch's replay, on a
/// copy) folds each re-evaluated endpoint with apply(). The double TNS fold
/// is order-sensitive and drifts from a fresh scan in the last bits, which
/// is why the value is copied bitwise (Transaction snapshot, EngineState)
/// rather than recomputed. `worst` is exact while `valid`; a fold that may
/// have raised the minimum clears `valid`, and rescan() rebuilds worst/any
/// on read. Non-finite slacks (unconstrained endpoints) count nowhere.
struct Aggregates {
  double tns = 0.0;         ///< sum of negative finite slacks, ps
  int violations = 0;       ///< finite slacks below zero
  float worst = 0.0f;       ///< minimum finite slack (when any)
  std::uint8_t any = 0;     ///< 1 when some slack is finite
  std::uint8_t valid = 1;   ///< 0 when worst/any need rescan()

  /// Folds one endpoint's slack change oldv -> newv.
  void apply(float oldv, float newv) {
    if (oldv == newv) return;
    if (std::isfinite(oldv) && oldv < 0.0f) {
      tns -= static_cast<double>(oldv);
      --violations;
    }
    if (std::isfinite(newv) && newv < 0.0f) {
      tns += static_cast<double>(newv);
      ++violations;
    }
    if (valid == 0) return;
    if (std::isfinite(newv) && (any == 0 || newv <= worst)) {
      worst = newv;
      any = 1;
    } else if (any != 0 && std::isfinite(oldv) && oldv <= worst) {
      valid = 0;  // the minimum may have just improved
    }
  }

  /// From-scratch aggregates of the n slacks slack(0..n-1), in index order.
  template <typename Slack>
  [[nodiscard]] static Aggregates scan(std::size_t n, const Slack& slack) {
    Aggregates a;
    for (std::size_t i = 0; i < n; ++i) {
      const float s = slack(i);
      if (!std::isfinite(s)) continue;
      if (s < 0.0f) {
        a.tns += static_cast<double>(s);
        ++a.violations;
      }
      if (a.any == 0 || s < a.worst) {
        a.worst = s;
        a.any = 1;
      }
    }
    return a;
  }

  /// Rebuilds worst/any from slack(0..n-1) and marks them valid; tns and
  /// violations (with their fold drift) are left as they are.
  template <typename Slack>
  void rescan(std::size_t n, const Slack& slack) {
    any = 0;
    worst = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float s = slack(i);
      if (!std::isfinite(s)) continue;
      if (any == 0 || s < worst) {
        worst = s;
        any = 1;
      }
    }
    valid = 1;
  }

  /// The reported metrics (wns 0 when no slack is finite). Requires valid.
  [[nodiscard]] SlackSummary summary() const {
    return {tns, any != 0 ? static_cast<double>(worst) : 0.0, violations};
  }
};

/// A complete image of the mutable timing state of a clean engine — the
/// export/import unit behind the replication snapshot codec. Covers every
/// store that annotate()/forward passes mutate (delay planes, startpoint
/// arrivals, Top-K planes, slack planes) plus the per-(mode, corner)
/// Aggregates, which are copied bitwise because their order-sensitive
/// double folds drift from an exact recompute: a replica recomputing them
/// locally would not match the writer byte for byte.
/// Structural stores (graph CSR, CPPR tables, exceptions) are not
/// included: both sides build them deterministically from the same design,
/// and the shape/corner/required-time checks in import_state() reject a
/// mismatched design.
struct EngineState {
  std::uint64_t generation = 0;

  // Shape: must match the importing engine exactly.
  std::uint32_t num_corners = 0;
  std::uint64_t num_pins = 0;
  std::uint64_t num_slots = 0;
  std::uint64_t num_sps = 0;
  std::uint64_t num_eps = 0;
  std::uint64_t num_arcs = 0;
  std::int32_t top_k = 0;
  std::uint32_t tk_stride = 0;
  std::uint8_t enable_hold = 0;
  std::vector<CornerSpec> corners;

  // Mutable value planes (corner-major layouts identical to the engine's).
  std::array<std::vector<float>, 2> amu;
  std::array<std::vector<float>, 2> asig;
  std::array<std::vector<float>, 2> sp_mu;
  std::array<std::vector<float>, 2> sp_sig;
  std::vector<float> tk_arr, tk_mu, tk_sig;
  std::vector<std::int32_t> tk_sp, tk_cnt;
  std::vector<float> tk2_arr, tk2_mu, tk2_sig;
  std::vector<std::int32_t> tk2_sp, tk2_cnt;
  std::vector<float> slack, hold_slack;
  std::vector<std::uint8_t> ep_worst_rf;

  // Endpoint required-time attributes. Structural (never mutated), shipped
  // so import can verify byte-equality — the cheapest "same design, same
  // constraints" fingerprint.
  std::vector<float> ep_base_req, ep_hold_base;

  // Aggregates, bitwise (see struct comment), indexed [mode][corner]. The
  // hold row is all defaults when hold is off.
  std::array<std::vector<Aggregates>, 2> aggregates;
};

/// Global timing metric whose gradient run_backward computes.
enum class GradientMetric { kTns, kWns };

/// The INSTA engine: ultra-fast, differentiable, statistical timing
/// propagation over a timing-graph image cloned from a reference engine.
///
/// Construction performs the paper's one-time initialization (Figure 2):
/// it copies the levelized graph structure, per-arc delay distributions,
/// startpoint arrival attributes, endpoint required-time attributes, the
/// clock-tree CPPR tables, and the timing-exception table out of the golden
/// reference engine into flat float structure-of-arrays storage — the CPU
/// analogue of uploading initialization tensors to the GPU.
///
/// After initialization the engine is independent of the reference: it owns
/// forward Top-K statistical propagation (Algorithms 1 + 2) across every
/// configured corner, endpoint slack evaluation with CPPR credits,
/// incremental arc re-annotation, and the backward "timing gradient" pass
/// (Eq. 6).
///
/// MCMM: all value stores are corner-major (corner plane = one single-corner
/// engine image), so one graph traversal propagates C corners through the
/// same kernels. Per-corner queries take a CornerId; merged (cross-corner
/// worst-case) summaries come from merged_summary().
///
/// Slack metrics: each (corner, mode) keeps one Aggregates value, rebuilt
/// by every full pass and folded by delta in sparse passes; summary()
/// reports it.
class Engine {
 public:
  /// One-time initialization from a golden reference engine whose clock
  /// analysis is built (update_clock() or update_full()). Only the delays,
  /// the clock analysis and the exceptions are read, so the result is the
  /// same either way; the reference's propagated arrivals are not needed.
  explicit Engine(const ref::GoldenSta& reference, EngineOptions options = {});

  // ---- corners --------------------------------------------------------------

  /// Number of propagated corners (>= 1).
  [[nodiscard]] std::size_t num_corners() const { return C_; }

  /// The resolved corner list ([0] is the implicit default when
  /// EngineOptions::corners was empty).
  [[nodiscard]] std::span<const CornerSpec> corners() const { return corners_; }

  /// Id of a corner by name, or kAllCorners (-1) when unknown.
  [[nodiscard]] CornerId corner_id(std::string_view name) const;

  // ---- incremental re-annotation ------------------------------------------

  /// Overwrites the delay distributions of the given arcs (e.g. with
  /// estimate_eco output after a gate resize) in one corner, or broadcast
  /// to every corner (the default; each corner applies its own scale set).
  /// Launch-arc deltas update the corresponding startpoint's initial
  /// arrival. Cheap; call run_forward() afterwards to refresh timing. Arc
  /// and corner ids are range-checked even in Release (out-of-range would
  /// corrupt the flat stores); full structured validation is
  /// annotate_checked()'s job.
  void annotate(std::span<const timing::ArcDelta> deltas,
                CornerId corner = kAllCorners);

  /// Validating annotate for trust boundaries (CLI flags, JSON what-if
  /// input): runs check_deltas(), applies every clean delta, skips the
  /// erroneous ones, and returns the diagnostics. Prefer the raw
  /// annotate() inside optimization loops that generate their own deltas.
  analysis::LintReport annotate_checked(std::span<const timing::ArcDelta> deltas,
                                        CornerId corner = kAllCorners);

  /// Validates a delta-set without applying it. Errors (rule ids
  /// "delta-arc-range", "delta-clock-arc", "delta-bad-value",
  /// "corner-unknown") mark deltas annotate() would reject or corrupt on;
  /// duplicates within the span are reported as warnings
  /// ("delta-duplicate-arc") since annotate() applies them last-wins.
  /// Reuses the analysis diagnostic types so reports can be rendered and
  /// merged like linter output.
  [[nodiscard]] analysis::LintReport check_deltas(
      std::span<const timing::ArcDelta> deltas,
      CornerId corner = kAllCorners) const;

  /// Reads back the engine's current annotation of a data arc in one
  /// corner (used by optimization loops to snapshot state before a
  /// tentative annotate() so a rejected move can be rolled back exactly).
  /// The returned values are corner-local, i.e. with that corner's scale
  /// set already applied.
  [[nodiscard]] timing::ArcDelta read_annotation(timing::ArcId arc,
                                                 CornerId corner = 0) const;

  // ---- transactional editing ----------------------------------------------

  /// RAII speculative-edit scope: the first-class replacement for the
  /// checkpoint/annotate/restore dance. A Transaction records the raw
  /// pre-edit stores of every arc it touches in every corner (first touch
  /// wins), so rollback() restores delays, Top-K stores, endpoint slacks,
  /// and the delta-maintained Aggregates to their exact pre-transaction
  /// bytes — including launch arcs, whose startpoint fold does not
  /// round-trip through read_annotation()/annotate() exactly.
  ///
  ///   auto tx = engine.begin_edit();
  ///   tx.annotate(deltas);                  // broadcast to all corners
  ///   engine.run_forward_incremental();
  ///   if (engine.merged_summary(Mode::kSetup).tns >= floor) tx.commit();
  ///   else tx.rollback();   // also implied by ~Transaction
  ///
  /// One Transaction may be active per engine at a time; mutating the
  /// engine through anything other than the active Transaction's annotate()
  /// leaves those edits outside its undo log.
  class Transaction {
   public:
    Transaction(Transaction&& other) noexcept;
    Transaction(const Transaction&) = delete;
    Transaction& operator=(Transaction&&) = delete;
    Transaction& operator=(const Transaction&) = delete;
    /// Rolls back if neither commit() nor rollback() was called.
    ~Transaction();

    /// annotate() on the parent engine, snapshotting first-touched arcs
    /// (all corners, regardless of the targeted corner — rollback is then
    /// correct whatever mix of targeted and broadcast edits follows).
    void annotate(std::span<const timing::ArcDelta> deltas,
                  CornerId corner = kAllCorners);

    /// Keeps the edits; the transaction becomes inactive. Timing refresh
    /// (run_forward_incremental) stays the caller's responsibility, same
    /// as after a plain annotate().
    void commit();

    /// Every annotate() call made through this transaction, in call order
    /// with the caller's delta ordering preserved (replaying them on a
    /// pre-transaction twin is bit-identical — ordering matters because
    /// the TNS delta folds are float-order-sensitive). Survives commit()
    /// so the serve layer can capture a commit's replication record;
    /// cleared by rollback(), which erased the edits.
    [[nodiscard]] const std::vector<AppliedDeltas>& applied() const {
      return applied_;
    }

    /// Restores every touched arc's raw delay floats in every corner,
    /// re-propagates incrementally (bit-identical slack restoration), and
    /// restores the Aggregates copied at begin_edit(). The engine is
    /// timing-clean afterwards.
    void rollback();

    /// False once commit()/rollback() ran (or the transaction was moved).
    [[nodiscard]] bool active() const { return engine_ != nullptr; }

   private:
    friend class Engine;
    explicit Transaction(Engine& engine);

    /// Raw first-touch snapshot of one arc's delay storage across every
    /// corner: either a data arc's amu_/asig_ slots or a launch arc's
    /// folded startpoint floats. mu/sig are laid out [corner*2 + rf].
    struct Undo {
      timing::ArcId arc = timing::kNullArc;
      std::int32_t slot = -1;  ///< data-arc slot; -1 for launch arcs
      std::int32_t sp = -1;    ///< startpoint id for launch arcs
      netlist::PinId sink = netlist::kNullPin;  ///< rollback frontier seed
      std::vector<float> mu;
      std::vector<float> sig;
    };
    void record(std::span<const timing::ArcDelta> deltas);

    Engine* engine_ = nullptr;
    std::vector<Undo> undo_;
    std::vector<AppliedDeltas> applied_;
    // The engine's aggregates at begin_edit(); restored verbatim on
    // rollback (the slack stores themselves restore bit-identically through
    // the sparse pass, so the snapshot stays consistent with them).
    std::array<std::vector<Aggregates>, 2> aggregates_;
  };

  /// Opens a Transaction. Requires clean timing (run a forward pass first)
  /// so the snapshot is consistent; throws if a Transaction is already
  /// active on this engine.
  [[nodiscard]] Transaction begin_edit();

  // ---- forward: Top-K statistical propagation -------------------------------

  /// Full-graph forward propagation: level-synchronous Top-K unique-
  /// startpoint arrival merging of every corner in one sweep, then
  /// endpoint slack evaluation.
  void run_forward();

  /// Frontier-sparse forward propagation: annotate() seeds a per-corner
  /// dirty-pin worklist; each level re-merges only its dirty pins, and a
  /// pin whose Top-K list is bit-identical after the re-merge does not
  /// dirty its fanout (value-change early termination), so ECO ripples die
  /// out instead of sweeping the whole cone. Only the endpoints actually
  /// reached by the frontier are re-evaluated, with TNS/WNS maintained by
  /// delta. Corners run back-to-back with fully independent frontier
  /// state, so every corner's operation order — and therefore every
  /// float — exactly matches an independent single-corner engine's.
  /// Results are bit-identical to run_forward(); falls back to a full pass
  /// on the first call after initialization.
  void run_forward_incremental();

  /// Work accounting of the most recent forward pass (full or sparse),
  /// summed over corners. Deterministic and independent of the telemetry
  /// build — used by the equivalence tests and the Fig. 7 bench.
  struct SparseStats {
    bool sparse = false;  ///< false when the pass ran (or fell back to) dense
    std::uint64_t levels_touched = 0;
    std::uint64_t frontier_pins = 0;       ///< pins re-merged
    std::uint64_t early_terminations = 0;  ///< re-merged pins left unchanged
    std::uint64_t endpoints_evaluated = 0;
    std::uint64_t endpoints_skipped = 0;
  };
  [[nodiscard]] const SparseStats& last_pass_stats() const {
    return last_pass_;
  }

  /// True when no annotation is pending in any corner (an incremental pass
  /// would be a no-op). Exposed for dirty-bookkeeping tests.
  [[nodiscard]] bool timing_clean() const {
    if (full_dirty_) return false;
    for (const std::size_t dl : dirty_level_) {
      if (dl != std::numeric_limits<std::size_t>::max()) return false;
    }
    return true;
  }

  /// Monotonic count of completed forward passes (full or sparse). Two
  /// reads of the engine's timing state made under the same generation with
  /// timing_clean() are guaranteed to describe the same committed timing;
  /// the serve layer uses it as the published-snapshot version.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  // ---- state export / import (replication) ----------------------------------

  /// Copies the complete mutable timing state (see EngineState) out of a
  /// clean engine. Requires timing_clean() and no active Transaction so
  /// the image is a committed generation, not a half-applied edit.
  [[nodiscard]] EngineState export_state() const;

  /// Overwrites this engine's mutable timing state with an exported image
  /// from an engine built on the same design with the same options.
  /// Validates every shape field, the corner list, and the endpoint
  /// required-time attributes (byte-equality) before touching anything,
  /// throwing util::CheckError on mismatch. After import the engine is
  /// timing-clean at state.generation and every accessor returns the
  /// exporting engine's bytes; backward-weight reuse and the
  /// generation-stamped merged_summary() caches are force-invalidated
  /// (the incoming generation number may collide with one this engine
  /// already cached under different state).
  void import_state(const EngineState& state);

  // ---- evaluation results ---------------------------------------------------

  /// Aggregate slack metrics of one analysis mode in one corner — the
  /// primary reporting accessor. The corner is an explicit parameter (the
  /// MCMM API migration point); use merged_summary() for the cross-corner
  /// worst-case view. Mode::kHold requires EngineOptions::enable_hold.
  /// Reads the delta-maintained Aggregates, rescanning the corner's slack
  /// plane first when a fold left the worst slack stale.
  [[nodiscard]] SlackSummary summary(Mode mode, CornerId corner) const;

  /// Cross-corner merged metrics: per endpoint, the worst slack over every
  /// corner; TNS/WNS/violations over those merged slacks. With one corner
  /// this is exactly summary(mode, 0). Computed by a deterministic
  /// endpoint-major scan and cached per generation.
  [[nodiscard]] SlackSummary merged_summary(Mode mode) const;

  /// Slack of one endpoint in one corner, ps (+infinity if unconstrained).
  [[nodiscard]] float endpoint_slack(timing::EndpointId ep,
                                     CornerId corner = 0) const {
    return slack_[ep_off(corner) + static_cast<std::size_t>(ep)];
  }

  /// One corner's endpoint slacks, indexed by endpoint id.
  [[nodiscard]] std::span<const float> endpoint_slacks(
      CornerId corner = 0) const {
    return {slack_.data() + ep_off(corner), ep_pin_.size()};
  }

  /// Hold slack of one endpoint in one corner, ps (+infinity if
  /// unconstrained). Valid when options.enable_hold.
  [[nodiscard]] float endpoint_hold_slack(timing::EndpointId ep,
                                          CornerId corner = 0) const {
    return hold_slack_[ep_off(corner) + static_cast<std::size_t>(ep)];
  }

  // ---- backward: timing gradients -------------------------------------------

  /// Backpropagates the chosen metric from the endpoints to every arc in
  /// every corner, assigning each candidate path the softmax weight of
  /// Eq. 6. After the call, arc_gradient(a, c) holds d(-metric_c)/d(mu_a)
  /// >= 0: the arc's criticality in corner c, i.e. how much one ps of
  /// added delay on the arc would degrade that corner's TNS (or WNS).
  void run_backward(GradientMetric metric = GradientMetric::kTns);

  /// Work accounting of the most recent run_backward, summed over corners.
  /// The Eq. 6 softmax weights (phase 1, the exp-dominated cost of the
  /// pass) depend only on parent top-1 arrivals and arc delays, so after
  /// an incremental forward pass only the frontier pins' weights can have
  /// changed: the backward pass reuses the frontier-sparse machinery and
  /// recomputes weights for exactly those pins, skipping clean cones.
  /// Deterministic and independent of the telemetry build.
  struct BackwardStats {
    bool weights_reused = false;  ///< true when the sparse reuse path ran
    std::uint64_t weight_pins_recomputed = 0;
    std::uint64_t weight_pins_reused = 0;
  };
  [[nodiscard]] const BackwardStats& last_backward_stats() const {
    return last_backward_;
  }

  /// Gradient of one arc in one corner from the last run_backward (graph
  /// arc id).
  [[nodiscard]] float arc_gradient(timing::ArcId arc,
                                   CornerId corner = 0) const {
    return arc_grad_[arc_off(corner) + static_cast<std::size_t>(arc)];
  }

  /// One corner's arc gradients, indexed by graph arc id.
  [[nodiscard]] std::span<const float> arc_gradients(
      CornerId corner = 0) const {
    return {arc_grad_.data() + arc_off(corner), graph_->num_arcs()};
  }

  /// Stage gradient of a cell in one corner: the sum of its cell-arc
  /// gradients and its driving net-arc gradients (Section III-H's sizing
  /// stage metric).
  [[nodiscard]] float stage_gradient(netlist::CellId cell,
                                     CornerId corner = 0) const;

  // ---- introspection ---------------------------------------------------------

  /// One Top-K entry as stored in the engine.
  struct TopKEntry {
    float arr = 0.0f;
    float mu = 0.0f;
    float sig = 0.0f;
    std::int32_t sp = -1;
  };

  /// Current Top-K arrivals at a pin/transition in one corner, descending
  /// by arrival.
  [[nodiscard]] std::vector<TopKEntry> arrivals(netlist::PinId pin,
                                                netlist::RiseFall rf,
                                                CornerId corner = 0) const;

  /// The worst arrival corner-value at a pin over both transitions in one
  /// analysis corner (-infinity if nothing arrives).
  [[nodiscard]] float worst_arrival(netlist::PinId pin,
                                    CornerId corner = 0) const;

  /// Bytes held by the engine's flat arrays (the Table I memory column).
  [[nodiscard]] std::size_t memory_bytes() const;

  [[nodiscard]] const timing::TimingGraph& graph() const { return *graph_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] std::size_t num_levels() const { return level_start_.size() - 1; }

 private:
  /// ScenarioBatch runs the engine's own kernels against copy-on-write
  /// overlays of the flat stores; it is a read-only friend of everything
  /// the forward pass reads.
  friend class ScenarioBatch;

  void clone_structure(const ref::GoldenSta& reference);
  void clone_delays(const ref::GoldenSta& reference);
  void clone_sp_ep_attributes(const ref::GoldenSta& reference);

  /// Corner-scale application with a byte-exact passthrough at 1.0f: the
  /// default corner must reproduce the pre-MCMM engine (and corner c of a
  /// multi-corner engine must reproduce an independent single-corner
  /// engine) bit for bit, so the no-scaling path performs the exact same
  /// double->float conversion as before, with no multiply.
  [[nodiscard]] static float scaled(double v, float scale) {
    const float f = static_cast<float>(v);
    return scale == 1.0f ? f : f * scale;
  }

  /// Per-chunk instrumentation accumulator: plain integers bumped inline in
  /// the merge kernels, flushed to the metrics registry once per chunk.
  struct ForwardCounters {
    std::uint64_t pins = 0;    ///< pins processed (per transition pass)
    std::uint64_t arcs = 0;    ///< fanin arcs traversed
    std::uint64_t merges = 0;  ///< Top-K insert attempts
    std::uint64_t prunes = 0;  ///< inserts rejected by the full-list filter
  };

  /// Value-access adapter of the shared kernels below, reading one
  /// corner's plane of the engine's live stores. ScenarioBatch supplies an
  /// overlay-first twin with the same interface; the kernels' instruction
  /// sequences are identical under both, which is what makes scenario
  /// results bit-identical to sequential passes. The corner offsets are
  /// resolved once at construction so the hot-loop reads stay one indexed
  /// load each.
  struct LiveValues {
    const Engine& e;
    std::size_t tkoff;    ///< corner offset into the Top-K entry planes
    std::size_t cntoff;   ///< corner offset into the count planes
    std::size_t slotoff;  ///< corner offset into amu_/asig_
    std::size_t spoff;    ///< corner offset into sp_mu_/sp_sig_
    LiveValues(const Engine& eng, CornerId corner)
        : e(eng),
          tkoff(eng.tk_off(corner)),
          cntoff(eng.cnt_off(corner)),
          slotoff(eng.slot_off(corner)),
          spoff(eng.sp_off(corner)) {}
    [[nodiscard]] TopKConstView parent(std::size_t pin, int rf,
                                       bool early) const {
      const auto& arr = early ? e.tk2_arr_ : e.tk_arr_;
      const auto& mu = early ? e.tk2_mu_ : e.tk_mu_;
      const auto& sig = early ? e.tk2_sig_ : e.tk_sig_;
      const auto& sp = early ? e.tk2_sp_ : e.tk_sp_;
      const auto& cnt = early ? e.tk2_cnt_ : e.tk_cnt_;
      const std::size_t ci = e.cnt_index(static_cast<netlist::PinId>(pin), rf);
      const std::size_t base = tkoff + ci * e.tk_stride_;
      return {&arr[base], &mu[base], &sig[base], &sp[base], cnt[cntoff + ci]};
    }
    [[nodiscard]] float arc_mu(std::size_t slot, int rf) const {
      return e.amu_[static_cast<std::size_t>(rf)][slotoff + slot];
    }
    [[nodiscard]] float arc_sig(std::size_t slot, int rf) const {
      return e.asig_[static_cast<std::size_t>(rf)][slotoff + slot];
    }
    [[nodiscard]] float sp_mu(std::int32_t sp, int rf) const {
      return e.sp_mu_[static_cast<std::size_t>(rf)]
                     [spoff + static_cast<std::size_t>(sp)];
    }
    [[nodiscard]] float sp_sig(std::int32_t sp, int rf) const {
      return e.sp_sig_[static_cast<std::size_t>(rf)]
                      [spoff + static_cast<std::size_t>(sp)];
    }
  };

  /// Result of the value-parameterized endpoint evaluations.
  struct SetupEval {
    float slack = std::numeric_limits<float>::infinity();
    std::uint8_t worst_rf = 0;
    std::uint64_t lookups = 0;
  };
  struct HoldEval {
    float slack = std::numeric_limits<float>::infinity();
    std::uint64_t lookups = 0;
  };

  void forward_from(std::size_t first_level);
  /// The sparse worklist pass behind run_forward_incremental(): corners run
  /// back-to-back, each over its own frontier state.
  void run_forward_sparse();
  void run_forward_sparse_corner(CornerId corner);
  /// Re-merges one pin of both modes in one corner into thread-local
  /// scratch and commits the result only when it differs bitwise from the
  /// live store. Returns true when anything changed (the pin's fanout must
  /// be dirtied in that corner).
  bool reprocess_pin_sparse(netlist::PinId pin, CornerId corner,
                            ForwardCounters& fc);
  /// Queues `pin` (at graph level `lvl`) on one corner's dirty frontier.
  void mark_dirty(netlist::PinId pin, int lvl, CornerId corner);
  /// Rebuilds every (mode, corner) Aggregates by scanning slack_ /
  /// hold_slack_.
  void recompute_aggregates();
  /// One corner's live slack plane of one mode, indexed by endpoint id.
  [[nodiscard]] const float* slack_plane(Mode mode, CornerId corner) const {
    return (mode == Mode::kSetup ? slack_ : hold_slack_).data() +
           ep_off(corner);
  }
  /// The delta-maintained aggregates of one (mode, corner).
  [[nodiscard]] Aggregates& aggregates(Mode mode, CornerId corner) const {
    return aggregates_[static_cast<std::size_t>(mode)]
                      [static_cast<std::size_t>(corner)];
  }
  void process_pin(netlist::PinId pin, CornerId corner, ForwardCounters& fc);
  void process_pin_early(netlist::PinId pin, CornerId corner,
                         ForwardCounters& fc);
  /// The Algorithm 1+2 merge kernel of one pin/transition/corner into
  /// `dst` (either the live store or sparse scratch). kEarly selects the
  /// min-mode (negated-corner) stores. Thin wrapper over merge_pin_values
  /// with LiveValues.
  template <bool kEarly>
  void merge_pin_rf(netlist::PinId pin, int rf, CornerId corner,
                    const TopKView& dst, ForwardCounters& fc);
  /// Value-parameterized Algorithm 1+2 merge; defined below the class.
  template <bool kEarly, typename Values>
  void merge_pin_values(const Values& vals, netlist::PinId pin, int rf,
                        const TopKView& dst, ForwardCounters& fc) const;
  /// Returns the number of CPPR credit lookups performed.
  std::uint64_t evaluate_endpoint(timing::EndpointId ep, CornerId corner);
  std::uint64_t evaluate_endpoint_hold(timing::EndpointId ep, CornerId corner);
  /// Value-parameterized endpoint evaluations; defined below the class.
  template <typename Values>
  [[nodiscard]] SetupEval evaluate_endpoint_values(const Values& vals,
                                                   timing::EndpointId ep) const;
  template <typename Values>
  [[nodiscard]] HoldEval evaluate_endpoint_hold_values(
      const Values& vals, timing::EndpointId ep) const;
  [[nodiscard]] float credit(std::int32_t sp_node, std::int32_t ep_node) const;
  /// Index into one corner's count plane (tk_cnt_/tk2_cnt_): Top-K stores
  /// are laid out in level order (tk_pos_ is the pin's position in
  /// level_pins_, with unleveled pins appended after), so the pins of one
  /// level occupy one contiguous run of every plane — the level-contiguous
  /// SoA layout the merge and backward kernels stream through.
  [[nodiscard]] std::size_t cnt_index(netlist::PinId pin, int rf) const {
    return static_cast<std::size_t>(
               tk_pos_[static_cast<std::size_t>(pin)]) *
               2 +
           static_cast<std::size_t>(rf);
  }
  /// First slot of a pin/transition's Top-K entries within one corner's
  /// plane. Entries are padded to tk_stride_ (top_k rounded up to 8, the
  /// merge kernel's candidate group) so every entry run starts on a
  /// 32-byte boundary of the plane; the pad slots are never read (kernels
  /// stop at the count).
  [[nodiscard]] std::size_t entry_base(netlist::PinId pin, int rf) const {
    return cnt_index(pin, rf) * tk_stride_;
  }

  // Corner-major plane offsets. Every per-value store is C consecutive
  // single-corner planes; plane c of any array is byte-compatible with the
  // whole array of a single-corner engine.
  [[nodiscard]] std::size_t tk_off(CornerId c) const {
    return static_cast<std::size_t>(c) * corner_stride_;
  }
  [[nodiscard]] std::size_t cnt_off(CornerId c) const {
    return static_cast<std::size_t>(c) * num_pins_ * 2;
  }
  [[nodiscard]] std::size_t slot_off(CornerId c) const {
    return static_cast<std::size_t>(c) * num_slots_;
  }
  [[nodiscard]] std::size_t sp_off(CornerId c) const {
    return static_cast<std::size_t>(c) * num_sps_;
  }
  [[nodiscard]] std::size_t ep_off(CornerId c) const {
    return static_cast<std::size_t>(c) * ep_pin_.size();
  }
  [[nodiscard]] std::size_t arc_off(CornerId c) const {
    return static_cast<std::size_t>(c) * graph_->num_arcs();
  }
  [[nodiscard]] std::size_t pin_off(CornerId c) const {
    return static_cast<std::size_t>(c) * num_pins_;
  }

  const timing::TimingGraph* graph_;
  EngineOptions options_;
  float nsigma_ = 3.0f;

  /// Resolved corner list (never empty; [0] is the implicit default corner
  /// when the options named none) and its size.
  std::vector<CornerSpec> corners_;
  std::size_t C_ = 1;

  std::size_t num_pins_ = 0;
  std::size_t num_slots_ = 0;  ///< fanin slots (fi_from_.size())
  std::size_t num_sps_ = 0;    ///< startpoints

  // Levelized structure (cloned; corner-independent).
  std::vector<std::int32_t> level_start_;
  std::vector<netlist::PinId> level_pins_;

  // Fanin CSR over data arcs; `slot` indexes all per-arc-instance arrays
  // within one corner plane.
  std::vector<std::int32_t> fi_start_;      // per pin, size P+1
  std::vector<netlist::PinId> fi_from_;     // per slot
  std::vector<std::uint8_t> fi_neg_;        // per slot: 1 if negative sense
  std::vector<timing::ArcId> fi_arc_;       // per slot: graph arc id
  std::array<std::vector<float>, 2> amu_;   // per corner*slot, [rf]
  std::array<std::vector<float>, 2> asig_;  // per corner*slot, [rf]
  std::vector<std::int32_t> slot_of_arc_;   // per graph arc, -1 if none

  // Fanout CSR referencing the same slots (for the backward pull).
  std::vector<std::int32_t> fo_start_;   // per pin, size P+1
  std::vector<std::int32_t> fo_slot_;    // per entry: fanin slot id
  std::vector<netlist::PinId> fo_to_;    // per entry: child pin

  // Startpoints. The init arrays are per-corner (each corner scales the
  // launch portion); the clock attributes are shared.
  std::vector<std::int32_t> sp_of_pin_;      // per pin, -1 if none
  std::array<std::vector<float>, 2> sp_mu_;  // init arrival mean, corner*sp
  std::array<std::vector<float>, 2> sp_sig_; // init arrival sigma, corner*sp
  std::vector<float> sp_ck_mu_;              // clock arrival mean (clocked SPs)
  std::vector<float> sp_ck_sig2_;            // clock arrival variance
  std::vector<std::int32_t> sp_node_;        // clock-tree node, -1 for PIs
  std::vector<std::int32_t> launch_sp_of_arc_;  // per graph arc, -1 default

  // Endpoints. Required-time attributes are shared across corners; the
  // slack results are per-corner planes.
  std::vector<netlist::PinId> ep_pin_;
  std::vector<float> ep_base_req_;
  std::vector<float> ep_period_;  ///< capture domain period per endpoint
  std::vector<std::int32_t> ep_node_;     // capture clock-tree node, -1 at POs
  std::vector<float> slack_;              // per corner*endpoint
  std::vector<std::uint8_t> ep_worst_rf_; // per corner*endpoint
  timing::ExceptionTable exceptions_;

  // Clock-tree CPPR tables (cloned; shared across corners).
  std::vector<std::int32_t> ck_parent_;
  std::vector<std::int32_t> ck_depth_;
  std::vector<float> ck_sig2_;

  // Top-K stores: corner-major, level-contiguous SoA planes. A corner owns
  // one contiguous plane of corner_stride_ floats per array; within it, a
  // pin/transition's entries live at [entry_base(pin, rf), +count) with
  // capacity top_k inside a tk_stride_-sized run, runs ordered by tk_pos_
  // (level order) — so a (corner, level) pair's stores are one contiguous
  // streamable block per plane and the kernels of topk.hpp run unchanged
  // off a corner-offset base pointer.
  std::vector<std::int32_t> tk_pos_;  // per pin: position in level order
  std::size_t tk_stride_ = 0;         // top_k rounded up to 8 (group size)
  std::size_t corner_stride_ = 0;     // num_pins * 2 * tk_stride_
  std::vector<float> tk_arr_;
  std::vector<float> tk_mu_;
  std::vector<float> tk_sig_;
  std::vector<std::int32_t> tk_sp_;
  std::vector<std::int32_t> tk_cnt_;  // per corner*(position*2 + rf)

  // Early (min-mode) Top-K stores; tk2_arr_ holds *negated* early corners
  // so the same descending-list kernel keeps the smallest arrivals.
  std::vector<float> tk2_arr_;
  std::vector<float> tk2_mu_;
  std::vector<float> tk2_sig_;
  std::vector<std::int32_t> tk2_sp_;
  std::vector<std::int32_t> tk2_cnt_;
  std::vector<float> ep_hold_base_;  ///< late capture clock + hold, per ep
  std::vector<float> hold_slack_;    ///< per corner*endpoint

  // ---- frontier-sparse incremental state (all per-corner) -------------------
  //
  // Fully independent per-corner frontier state is a correctness decision,
  // not a convenience: folding corners into one shared worklist would
  // interleave each corner's dirty-endpoint order with the others', and
  // the double-precision TNS delta folds are order-sensitive — the merged
  // engine would drift from C independent engines in the last bit. With
  // per-corner state walked corner-by-corner, every corner replays exactly
  // the operation sequence of its independent twin.

  /// Per corner: shallowest level with a queued dirty pin (SIZE_MAX clean).
  std::vector<std::size_t> dirty_level_;
  /// True until the first full forward pass: every pin is implicitly dirty
  /// and run_forward_incremental() falls back to the dense sweep.
  bool full_dirty_ = true;
  std::vector<std::int32_t> ep_of_pin_;  ///< per pin: endpoint id or -1
  std::vector<std::uint8_t> dirty_pin_;  ///< per corner*pin: queued flag
  /// Per-(corner, level) compact worklists of dirty pins, indexed
  /// corner*num_levels + level. Vectors keep their capacity across passes,
  /// so steady-state sparse passes allocate nothing.
  std::vector<std::vector<netlist::PinId>> frontier_;
  /// Per corner: endpoints to re-evaluate this pass.
  std::vector<std::vector<timing::EndpointId>> dirty_eps_;
  std::vector<std::uint8_t> changed_flags_;     ///< per frontier slot scratch
  std::vector<float> old_slack_scratch_;        ///< pre-eval setup slacks
  std::vector<float> old_hold_scratch_;         ///< pre-eval hold slacks
  SparseStats last_pass_;

  /// One Transaction active at a time; set by begin_edit, cleared by
  /// commit/rollback.
  bool txn_active_ = false;

  /// Completed forward passes (see generation()).
  std::uint64_t generation_ = 0;

  /// Delta-maintained aggregates, [mode][corner] (exactly rebuilt by every
  /// full pass). Mutable: summary() rescans a stale worst slack on read.
  mutable std::array<std::vector<Aggregates>, 2> aggregates_;

  /// Per-mode generation-stamped merged_summary() caches (recomputed on
  /// demand by an endpoint-major scan; never delta-maintained, so they
  /// cannot drift).
  struct MergedCache {
    SlackSummary summary;
    std::uint64_t generation = std::numeric_limits<std::uint64_t>::max();
  };
  mutable std::array<MergedCache, 2> merged_;

  // Backward state (per-corner planes over the single-corner layouts).
  std::array<std::vector<float>, 2> w_;  // per corner*slot, [rf]: Eq. 6 weights
  std::vector<float> pin_grad_;          // per corner*pin*2
  std::vector<float> slot_grad_;         // per corner*slot
  std::vector<float> arc_grad_;          // per corner*graph arc
  /// Per-slot parent count index (tk_pos_[from]*2 + prf), the gather table
  /// of the backward candidate kernel. Structure-only and corner-relative
  /// (the kernel's base pointers carry the corner offset); built once.
  std::array<std::vector<std::int32_t>, 2> slot_ci_;
  /// Per-corner*slot LSE candidate scratch of backward phase 1.
  std::array<std::vector<float>, 2> bw_cand_;
  /// Weight-reuse tracking: false until the first backward pass (or after
  /// any dense forward), meaning every pin's weights must be recomputed.
  /// While true, w_stale_/w_stale_pins_ name exactly the pins whose weight
  /// inputs may have changed (each corner's sparse-forward frontier).
  bool w_tracking_ = false;
  std::vector<std::uint8_t> w_stale_;                   // per corner*pin
  std::vector<std::vector<netlist::PinId>> w_stale_pins_;  // per corner
  BackwardStats last_backward_;

  /// Recomputes the Eq. 6 weights of one pin (both transitions) in one
  /// corner from the bw_cand_ scratch, writing w_[rf][slot_off(c)+fs, +fe)
  /// (libm exp, sequential denominator in slot order).
  void compute_weights_pin(std::size_t p, float tau, CornerId corner);
  /// Marks one pin's weights stale in one corner (no-op unless tracking).
  void mark_weights_stale(netlist::PinId pin, CornerId corner);
  /// Invalidates all weight reuse (dense pass, structural uncertainty).
  void invalidate_weights();
};

// ---- shared value-parameterized kernels -------------------------------------
//
// The dense pass, the frontier-sparse pass, and ScenarioBatch's copy-on-write
// overlays all execute these exact instruction sequences; only the Values
// adapter differs (live stores vs overlay-first reads, and which corner's
// plane the adapter is bound to). A single body is what turns "scenario and
// multi-corner results are bit-identical to sequential single-corner passes"
// from a testing aspiration into a structural property.

/// The Algorithm 1+2 merge of one pin/transition, writing into `dst` —
/// the pin's live Top-K slice (dense pass), thread-local scratch (sparse
/// pass), or a scenario's overlay slab. kEarly selects the min-mode
/// parent stores, whose arr slots hold *negated* early corners so the same
/// descending unique-SP list keeps the K smallest early arrivals.
template <bool kEarly, typename Values>
void Engine::merge_pin_values(const Values& vals, netlist::PinId pin, int rf,
                              const TopKView& dst, ForwardCounters& fc) const {
  const auto p = static_cast<std::size_t>(pin);
  const std::int32_t fs = fi_start_[p];
  const std::int32_t fe = fi_start_[p + 1];

  *dst.count = 0;
  if (fs == fe) {
    const std::int32_t sp = sp_of_pin_[p];
    if (sp < 0) return;
    const float mu = vals.sp_mu(sp, rf);
    const float sig = vals.sp_sig(sp, rf);
    dst.arr[0] = kEarly ? -(mu - nsigma_ * sig) : (mu + nsigma_ * sig);
    dst.mu[0] = mu;
    dst.sig[0] = sig;
    dst.sp[0] = sp;
    *dst.count = 1;
    return;
  }

  // Materialize the fanin candidate lists in chunks, then hand each batch
  // to the merge kernel (topk.cpp). The chunk bounds the stack footprint
  // on high-fanin pins; within a batch the kernel prefetches the next
  // arc's parent planes (the CSR-indirect reads) while merging the current
  // one.
  constexpr std::int32_t kChunk = 16;
  MergeArc batch[kChunk];
  MergeCounters mc;
  for (std::int32_t s = fs; s < fe; s += kChunk) {
    const std::int32_t n = std::min<std::int32_t>(kChunk, fe - s);
    for (std::int32_t j = 0; j < n; ++j) {
      const auto si = static_cast<std::size_t>(s + j);
      const int prf = rf ^ static_cast<int>(fi_neg_[si]);
      const auto from = static_cast<std::size_t>(fi_from_[si]);
      batch[j].par = vals.parent(from, prf, kEarly);
      batch[j].am = vals.arc_mu(si, rf);
      const float as = vals.arc_sig(si, rf);
      batch[j].as2 = as * as;
    }
    fc.arcs += static_cast<std::uint64_t>(n);
    merge_arcs(dst, batch, static_cast<int>(n), nsigma_, kEarly, mc);
  }
  fc.merges += mc.merges;
  fc.prunes += mc.prunes;
}

/// Setup slack of one endpoint over the visible Top-K store (live or
/// overlay): min over both transitions and every kept unique-startpoint
/// arrival of required - arrival, with CPPR credit and timing exceptions.
template <typename Values>
Engine::SetupEval Engine::evaluate_endpoint_values(const Values& vals,
                                                   timing::EndpointId ep) const {
  const auto e = static_cast<std::size_t>(ep);
  const auto pin = static_cast<std::size_t>(ep_pin_[e]);
  const std::int32_t ep_node = ep_node_[e];
  const float base = ep_base_req_[e];
  SetupEval out;
  const bool has_exceptions = exceptions_.size() != 0;
  for (int rf = 0; rf < 2; ++rf) {
    const TopKConstView view = vals.parent(pin, rf, /*early=*/false);
    for (std::int32_t kk = 0; kk < view.cnt; ++kk) {
      const std::int32_t sp = view.sp[kk];
      if (has_exceptions && exceptions_.is_false_path(sp, ep)) continue;
      ++out.lookups;
      float req = base + credit(sp_node_[static_cast<std::size_t>(sp)], ep_node);
      if (has_exceptions) {
        req += static_cast<float>(
            exceptions_.required_shift(sp, ep, static_cast<double>(ep_period_[e])));
      }
      const float slack = req - view.arr[kk];
      if (slack < out.slack) {
        out.slack = slack;
        out.worst_rf = static_cast<std::uint8_t>(rf);
      }
    }
  }
  return out;
}

/// Hold slack of one endpoint over the visible early-mode store.
template <typename Values>
Engine::HoldEval Engine::evaluate_endpoint_hold_values(
    const Values& vals, timing::EndpointId ep) const {
  const auto e = static_cast<std::size_t>(ep);
  const float base = ep_hold_base_[e];
  HoldEval out;
  if (std::isnan(base)) return out;  // unclocked endpoint: no hold check
  const auto pin = static_cast<std::size_t>(ep_pin_[e]);
  const std::int32_t ep_node = ep_node_[e];
  const bool has_exceptions = exceptions_.size() != 0;
  for (int rf = 0; rf < 2; ++rf) {
    const TopKConstView view = vals.parent(pin, rf, /*early=*/true);
    for (std::int32_t kk = 0; kk < view.cnt; ++kk) {
      const std::int32_t sp = view.sp[kk];
      if (has_exceptions && exceptions_.is_false_path(sp, ep)) continue;
      ++out.lookups;
      const float req =
          base - credit(sp_node_[static_cast<std::size_t>(sp)], ep_node);
      const float early = -view.arr[kk];
      out.slack = std::min(out.slack, early - req);
    }
  }
  return out;
}

}  // namespace insta::core
