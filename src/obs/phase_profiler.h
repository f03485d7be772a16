#ifndef BDISK_OBS_PHASE_PROFILER_H_
#define BDISK_OBS_PHASE_PROFILER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace bdisk::obs {

/// Wall-clock phases instrumented across the stack. The names exported for
/// each (see PhaseName) form the `prof.*` taxonomy documented in
/// OBSERVABILITY.md §7.
enum class Phase : std::uint8_t {
  kRun = 0,        ///< Whole Simulator::RunUntil, the root frame.
  kQueueSchedule,  ///< EventQueue schedule (one-shot insert).
  kQueuePop,       ///< EventQueue pop + handler dispatch (Simulator::Step).
  kKernelSpan,     ///< Batched periodic slot span (ops = slots fired).
  kDrain,          ///< Lazy-source drain barrier (ops = arrivals fused).
  kVcArrival,      ///< Fused virtual-client arrival loop (ops = arrivals).
  kVcDraw,         ///< VC arrival-batch refill, inside kVcArrival (ops =
                   ///< arrivals drawn).
  kServerSlot,     ///< BroadcastServer::OnSlotBoundary.
  kServerMux,      ///< MUX decision: push vs pull for the next slot.
  kServerQueue,    ///< Pull-queue submit path (ops = submits).
  kMcRequest,      ///< MeasuredClient request path (cache probe + submit).
  kMcDelivery,     ///< MeasuredClient::OnBroadcast (hears every slot).
  kFaultJudge,     ///< Fault-injector judgement sites.
  kCount,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

/// Export name for a phase (dotted, same style as metric names).
const char* PhaseName(Phase p);

/// Metric-name substrings whose values are wall-clock (nondeterministic)
/// and must be excluded from trajectory comparisons. `bdisk_compare` skips
/// any metric whose name contains one of these unless
/// --include-nondeterministic is given.
inline constexpr const char* kNondeterministicMetricSubstrings[] = {
    "prof.",
    "wall_seconds",
};

class MetricsRegistry;
struct RequestSpan;

/// Low-overhead hierarchical wall-clock profiler.
///
/// Contract (same as TraceSink, enforced by kernel_matrix_test): attaching
/// a profiler never changes the simulated trajectory. Instrumentation
/// sites hold a raw pointer that is null when profiling is off, so the hot
/// path costs one pointer check; the profiler itself draws from no
/// simulation stream (its sampling generator is its own), schedules no
/// events, and touches only its own memory.
///
/// Cost model. An *untimed* Enter/Exit pair — the overwhelmingly common
/// case — is a call-counter increment and a countdown decrement: no
/// timestamp, no stack frame, no state to unwind, a nanosecond or two.
/// Timestamps (rdtsc on x86-64, steady_clock elsewhere) and frame
/// bookkeeping are reserved for *sampled* frames: a frame is timed when
/// its phase's sampling countdown runs out or when it sits inside a timed
/// frame's subtree (tracked by a force counter) — so a sampled window
/// captures its complete subtree and self-times are exact within it.
/// Per-phase totals are scaled back up by calls/timed_calls at export.
/// The root `run` frame is always timed but does not force its children,
/// otherwise everything would be. Because untimed frames keep no stack,
/// call paths (folded stacks) name the chain of *timed* ancestors; inside
/// a forced subtree that is the full dynamic path.
///
/// Sampling schedule. Each phase has a mean stride; a countdown that runs
/// out is re-armed with a draw, uniform on [1, 2·stride − 1], from a
/// generator private to the profiler (a fixed-seed splitmix64 — no
/// simulation stream is touched). A fixed power-of-two stride would
/// alias with the model's own periodic work: the server samples metrics
/// every 256 slots and the windowed collector closes a window every
/// obs_window slots, so a `(calls & mask) == 0` test lands on those slow
/// slots at a fixed rate and scales them up by the stride. With a random
/// stride every call is sampled with the same long-run probability
/// 1/stride, whatever its position in a period.
///
/// Observer compensation. A timed window contains the Enter/Exit
/// instrumentation cost of every timed frame nested in it, and
/// extrapolation multiplies that distortion by the sampling stride —
/// enough to push a hot phase's estimate past the run total. Each timed
/// frame therefore *measures* its own instrumentation with bracket tick
/// reads (prologue on Enter, epilogue on Exit) and reports it to the
/// nearest open timed ancestor — the window the cost actually landed in —
/// so exports see pre-corrected tick totals. What the brackets cannot see
/// (their own issue cost, the untimed Enter prefix) is calibrated twice:
/// a construction-time probe of empty forced frames gives a warm-cache
/// floor, and Finalize() solves for the remaining in-situ leak from an
/// invariant — the root window (scale 1, wall minus captured
/// instrumentation) bounds every extrapolated phase, and each window
/// counts its timed descendants, so the binding phase yields the
/// per-frame leak that exports then subtract (desc-weighted, floored at
/// measured self-time).
///
/// Tick-to-ns calibration anchors a (ticks, steady_clock) pair at
/// construction and another at Finalize(); exports interpolate.
///
/// Exports (definitions in phase_profiler.cc, so translation units that
/// only *instrument* — sim/server/client — take no obs link dependency):
///   - MergeInto(): `prof.*` counters/gauges into a bdisk-metrics-v1 doc.
///   - ToFolded(): folded stacks ("run;kernel.span;server.slot NNN") for
///     flamegraph rendering.
///   - ToChromeTrace(): trace-event JSON; wall-clock slices from a bounded
///     ring of timed frames, optionally alongside sim-time request spans.
class PhaseProfiler {
 public:
  /// `slice_capacity` bounds the Chrome-trace slice ring (first-N kept).
  explicit PhaseProfiler(std::size_t slice_capacity = std::size_t{1} << 15);

  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Enters a phase frame and reports whether it is timed. The caller
  /// (PhaseScope) calls ExitTimed() iff this returned true — an untimed
  /// frame has no state to unwind. Untimed path: one counter increment
  /// and a countdown decrement. Forced frames leave the countdown alone.
  bool Enter(Phase ph) {
    PhaseStats& s = stats_[static_cast<std::size_t>(ph)];
    ++s.calls;
    if (force_depth_ == 0) {
      if (--s.countdown != 0) return false;
      s.countdown = NextCountdown(s.stride_span);
    }
    return EnterTimed(ph);
  }

  /// Closes a timed frame (Enter returned true): takes the closing
  /// timestamp, does the attribution bookkeeping, then reports its own
  /// instrumentation cost (measured by the bracket reads) to the
  /// enclosing timed frame, whose window it polluted.
  void ExitTimed() {
    const std::uint64_t end = ReadTicks();
    Frame& f = frames_[--tdepth_];
    if (f.phase != Phase::kRun) --force_depth_;
    PhaseStats& s = stats_[static_cast<std::size_t>(f.phase)];
    const std::uint64_t raw = end - f.start;
    const std::uint64_t total = raw > f.inst_ticks ? raw - f.inst_ticks : 0;
    const std::uint64_t child =
        f.child_ticks < total ? f.child_ticks : total;
    ++s.timed_calls;
    s.timed_ops += f.ops;
    s.total_ticks += total;
    s.self_ticks += total - child;
    s.desc_frames += f.desc;
    // Per-phase memo: inside a sampled window the same call path repeats
    // (every slot of a timed span folds to the identical stack), so the
    // common case skips the hash lookup. unordered_map never invalidates
    // value pointers on insert.
    const std::size_t pi = static_cast<std::size_t>(f.phase);
    std::uint64_t* cell = folded_memo_[pi];
    if (cell == nullptr || folded_memo_key_[pi] != f.path) {
      cell = &folded_[f.path];
      folded_memo_[pi] = cell;
      folded_memo_key_[pi] = f.path;
    }
    *cell += total - child;
    if (slices_.size() < slice_capacity_) {
      slices_.push_back(
          Slice{f.start, end, f.phase, static_cast<std::uint8_t>(tdepth_)});
    } else {
      ++slices_dropped_;
    }
    if (tdepth_ > 0) {
      // Nearest open timed frame: the window that encloses (and therefore
      // measures) this one. Intervening untimed frames record no ticks,
      // so this double-counts nothing. The epilogue bracket read comes
      // after all bookkeeping above so the parent is compensated for the
      // whole cost; tick_read_ticks_ covers the bracket reads themselves.
      Frame& parent = frames_[tdepth_ - 1];
      parent.child_ticks += total;
      parent.desc += f.desc + 1;
      const std::uint64_t t2 = ReadTicks();
      parent.inst_ticks += f.inst_ticks + f.pro_ticks + (t2 - end) +
                           tick_read_ticks_ + frame_residual_ticks_;
    }
  }

  /// Adds `n` work items to `ph` (arrivals fused, slots fired, ...); they
  /// become the denominator of that phase's ns/op. `timed` is the value
  /// Enter returned for the owning frame — when set, the ops also feed the
  /// innermost timed frame so the ns/op denominator matches its window.
  void AddOps(Phase ph, std::uint64_t n, bool timed) {
    stats_[static_cast<std::size_t>(ph)].ops += n;
    if (timed && tdepth_ > 0) frames_[tdepth_ - 1].ops += n;
  }

  /// Records the closing calibration anchor. Call once after the run;
  /// exports call it implicitly if it has not run yet.
  void Finalize();

  /// --- Exports (phase_profiler.cc; require linking bdisk_obs) ---

  /// Merges `prof.<phase>.{calls,ops}` counters and
  /// `prof.<phase>.{total_ns,self_ns,ns_per_op}` gauges into `registry`.
  void MergeInto(MetricsRegistry* registry);

  /// Folded-stack lines ("run;kernel.span;server.slot 123456\n"), sorted
  /// by path — flamegraph.pl input. Each path's sampled self ticks are
  /// scaled by its leaf phase's calls/timed_calls ratio, in nanoseconds,
  /// with the root "run" line replaced by the unattributed residual so
  /// the lines sum to the wall-clock run time.
  std::string ToFolded();

  /// Chrome trace-event JSON (chrome://tracing, Perfetto). Wall-clock
  /// phase slices on one track; if `spans` is non-null, completed sim-time
  /// request spans on a second track (sim units rendered as microseconds).
  std::string ToChromeTrace(const std::vector<RequestSpan>* spans);

  /// --- Introspection (tests) ---
  std::uint64_t Calls(Phase p) const {
    return stats_[static_cast<std::size_t>(p)].calls;
  }
  std::uint64_t TimedCalls(Phase p) const {
    return stats_[static_cast<std::size_t>(p)].timed_calls;
  }
  std::uint64_t Ops(Phase p) const {
    return stats_[static_cast<std::size_t>(p)].ops;
  }
  std::uint64_t SliceCount() const { return slices_.size(); }
  std::uint64_t SlicesDropped() const { return slices_dropped_; }
  std::uint64_t DepthOverflow() const { return depth_overflow_; }
  /// Open *timed* frames (untimed frames keep no stack); 0 when balanced.
  int OpenDepth() const { return tdepth_; }
  double NsPerTick() const { return ns_per_tick_; }
  /// Calibrated cost of one bracket tick read (the compensation residue).
  std::uint64_t TickReadTicks() const { return tick_read_ticks_; }
  /// In-situ per-frame leak (ticks) solved at Finalize from the
  /// root-window invariant; 0 when no extrapolated phase exceeded it.
  double LeakTicksPerFrame() const { return leak_ticks_; }

  /// Estimated totals after Finalize(): sampled ticks scaled by
  /// calls/timed_calls, converted to ns.
  double EstTotalNs(Phase p) const;
  double EstSelfNs(Phase p) const;
  double NsPerOp(Phase p) const;

 private:
  static constexpr int kMaxDepth = 16;      // Timed-frame stack slots.
  static constexpr int kMaxPathDepth = 8;   // Packed-path levels (8 bits each).

  struct PhaseStats {
    std::uint64_t calls = 0;
    std::uint64_t timed_calls = 0;
    std::uint64_t ops = 0;
    std::uint64_t timed_ops = 0;
    std::uint64_t total_ticks = 0;  // Instrumentation-compensated.
    std::uint64_t self_ticks = 0;   // Likewise.
    std::uint64_t desc_frames = 0;  // Timed frames closed in my windows.
    std::uint64_t countdown = 1;    // Unforced calls until the next sample.
    std::uint64_t stride_span = 1;  // 2·stride − 1: countdown draw range.
  };

  // A timed frame. Untimed frames never materialize — Enter just bumps
  // the call counter.
  struct Frame {
    std::uint64_t start = 0;
    std::uint64_t child_ticks = 0;  // Timed children's corrected windows.
    std::uint64_t inst_ticks = 0;   // Their instrumentation, in my window.
    std::uint64_t ops = 0;
    std::uint64_t path = 0;  // 8 bits per level, PackPhase-encoded.
    std::uint64_t desc = 0;  // Timed descendant frames closed inside me.
    std::uint32_t pro_ticks = 0;  // My own Enter prologue (bracket-read).
    Phase phase = Phase::kRun;
  };

  struct Slice {
    std::uint64_t start;
    std::uint64_t end;
    Phase phase;
    std::uint8_t depth;
  };

  static std::uint64_t PackPhase(Phase p) {
    return static_cast<std::uint64_t>(p) + 1;  // 0 marks "no level".
  }

  static std::uint64_t ReadTicks() {
#if defined(__x86_64__) || defined(_M_X64)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

  /// Next sampling countdown, uniform on [1, span]: splitmix64 on the
  /// profiler's own state, scaled by a multiply-shift. Runs only on
  /// sampled calls, which take two tick reads anyway.
  std::uint64_t NextCountdown(std::uint64_t span) {
    std::uint64_t z = (sample_state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return 1 + static_cast<std::uint64_t>(
                   (static_cast<__uint128_t>(z) * span) >> 64);
  }

  /// Slow half of Enter: pushes a timed frame, measuring its own prologue
  /// with a bracket read so the enclosing window can be compensated.
  /// Returns false (frame degrades to untimed) when the timed stack is
  /// full.
  bool EnterTimed(Phase ph) {
    const std::uint64_t t0 = ReadTicks();
    if (tdepth_ >= kMaxDepth) {
      ++depth_overflow_;
      return false;
    }
    Frame& f = frames_[tdepth_];
    f.phase = ph;
    f.ops = 0;
    f.child_ticks = 0;
    f.inst_ticks = 0;
    f.desc = 0;
    f.path = tdepth_ == 0 ? PackPhase(ph)
             : tdepth_ < kMaxPathDepth
                 ? (frames_[tdepth_ - 1].path << 8) | PackPhase(ph)
                 : frames_[tdepth_ - 1].path;
    if (ph != Phase::kRun) ++force_depth_;
    ++tdepth_;
    f.start = ReadTicks();
    f.pro_ticks = static_cast<std::uint32_t>(f.start - t0);
    return true;
  }

  std::array<PhaseStats, kPhaseCount> stats_{};
  std::array<Frame, kMaxDepth> frames_{};  // Timed frames only.
  int tdepth_ = 0;       // Open timed frames (frames_ occupancy).
  int force_depth_ = 0;  // Open timed non-run frames: >0 forces timing.
  std::uint64_t sample_state_ = 0x2545f4914f6cdd1dULL;  // Countdown draws.
  std::uint64_t depth_overflow_ = 0;
  std::uint64_t tick_read_ticks_ = 0;      // Cost of one ReadTicks call.
  std::uint64_t frame_residual_ticks_ = 0;  // Unbracketed per-frame cost.
  double leak_ticks_ = 0.0;  // In-situ residue past the probe's floor.

  /// Tick total with the in-situ leak subtracted (desc-weighted), floored
  /// at the measured self time — a window cannot be shorter than its
  /// exact self component.
  double CorrectedTicks(const PhaseStats& s) const {
    const double t = static_cast<double>(s.total_ticks) -
                     leak_ticks_ * static_cast<double>(s.desc_frames);
    return t > static_cast<double>(s.self_ticks)
               ? t
               : static_cast<double>(s.self_ticks);
  }

  std::unordered_map<std::uint64_t, std::uint64_t> folded_;  // path -> self.
  std::array<std::uint64_t*, kPhaseCount> folded_memo_{};
  std::array<std::uint64_t, kPhaseCount> folded_memo_key_{};

  std::vector<Slice> slices_;
  std::size_t slice_capacity_ = 0;
  std::uint64_t slices_dropped_ = 0;


  // Calibration anchors.
  std::uint64_t anchor_ticks_ = 0;
  std::chrono::steady_clock::time_point anchor_time_{};
  double ns_per_tick_ = 0.0;  // Nonzero once Finalize() has run.
};

/// RAII phase guard on a null-checked profiler pointer — the idiom every
/// instrumentation site uses:
///
///   obs::PhaseScope scope(profiler_, obs::Phase::kServerSlot);
///   ... hot path ...
///   scope.AddOps(n);   // optional work-item count
class PhaseScope {
 public:
  PhaseScope(PhaseProfiler* p, Phase ph)
      : p_(p), ph_(ph), timed_(p != nullptr && p->Enter(ph)) {}
  ~PhaseScope() {
    if (timed_) p_->ExitTimed();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  void AddOps(std::uint64_t n) {
    if (p_ != nullptr) p_->AddOps(ph_, n, timed_);
  }

 private:
  PhaseProfiler* p_;
  Phase ph_;
  bool timed_;
};

}  // namespace bdisk::obs

#endif  // BDISK_OBS_PHASE_PROFILER_H_
