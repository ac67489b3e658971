// DifferentialChecker — lock-step three-way oracle for a running switch.
//
// Attaches an observability probe to a CrossbarSwitch and, from the event
// stream alone, replays every arbitration against two independent models:
//
//   1. ReferenceOutput — the obviously-correct SSVC semantics (per grant:
//      the reference must pick the same winner and class; per output-cycle
//      with requests but no grant: the reference must agree nothing was
//      serviceable).
//   2. circuit::CircuitArbiter — the bit-level precharge/discharge/sense
//      model, fed the reference's thermometer levels and LRG order (per
//      grant: the wires must elect the same winner).
//
// plus per-cycle invariants that hold in every mode, faults included:
// at most one grant per output and per input per cycle, and conservation of
// packets (delivered <= buffered <= created, per flow). In differential mode
// it additionally deep-compares arbiter state (auxVC values, thermometer
// levels — stored and sensed —, LRG ranks, GL clock, epoch real time) and
// enforces the GL policing bound and counter-cap safety.
//
// The deep compare is event-driven. An output's arbiter state moves only at
// a grant there (a halve/reset management event fires inside that grant)
// and at a real-time epoch wrap, and in differential mode nothing else
// writes it: a fault injector — and with it the scrubber — turns the
// differential legs off. So each stepped cycle compares the outputs granted
// that cycle, and a full ascending sweep of every output runs on the first
// stepped cycle at or past each epoch boundary, at the end of run(), and
// before any state mismatch is reported. Every transition is still compared
// in the cycle it happens, and the reported Divergence is the one a
// sweep-every-cycle checker would report.
//
// The first mismatch is captured as a Divergence with a full state dump of
// both sides; checking stops there so the dump describes the *first* broken
// cycle, not a cascade.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arb/lrg.hpp"
#include "check/reference.hpp"
#include "circuit/circuit_arbiter.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "switch/crossbar.hpp"

namespace ssq::check {

struct CheckOptions {
  /// Reference-model + circuit comparisons. Requires SsvcQos mode with
  /// SingleRequest allocation and no fault injection (faults legitimately
  /// corrupt the state the oracle predicts). Invariants always run.
  bool differential = true;
  /// Third leg: bit-level circuit arbitration per grant (differential only).
  bool circuit = true;
  /// Deep arbiter state comparison (differential only): granted outputs
  /// every cycle, every output at epoch boundaries and at the end of run().
  bool state_compare = true;
  /// Deliberate defect planted in the reference model (tests only).
  PlantedBug bug = PlantedBug::None;
  /// Attach an online QoS conformance monitor (run_scenario only): GB
  /// share / GL Eq. (1) / BE fairness verdicts are counted into RunResult.
  /// Checks are armed per scenario — GL only under Stall policing, GB only
  /// under a real counter-management policy (see run_scenario).
  bool monitor = false;
  /// Conformance window in cycles. Smaller than ssq_sim's 2048 default:
  /// generated scenarios run only a few thousand cycles, and a campaign's
  /// teeth come from judged windows per scenario.
  Cycle monitor_window = 512;
  /// Flight-recorder ring capacity in events (0 = no recorder). With a
  /// recorder attached, RunResult::flight_dump carries a bounded JSONL
  /// snapshot of the first incident (violation, fault, or divergence).
  std::size_t flight_recorder = 0;
};

struct Divergence {
  Cycle cycle = 0;
  OutputId output = kNoPort;
  std::string kind;    // short machine-greppable tag, e.g. "winner_mismatch"
  std::string detail;  // full human-readable state dump
};

class DifferentialChecker {
 public:
  /// Attaches to `sim` (which must outlive the checker). The checker owns
  /// the probe; attaching replaces any probe already on the switch.
  explicit DifferentialChecker(sw::CrossbarSwitch& sim, CheckOptions opts = {});
  ~DifferentialChecker();
  DifferentialChecker(const DifferentialChecker&) = delete;
  DifferentialChecker& operator=(const DifferentialChecker&) = delete;

  /// Advances the switch one cycle and checks it. Returns false once a
  /// divergence has been recorded (the switch is no longer stepped).
  bool step();

  /// step() up to `cycles` times, then a full state sweep of every output;
  /// returns false if a divergence stopped it.
  bool run(Cycle cycles);

  /// For drivers that call sim.fast_forward() themselves instead of going
  /// through run(): the skipped cycles carried no requests, so a stepped run
  /// would have reset the engine stall streak on every one of them. Call
  /// after any fast_forward() that advanced the clock.
  void on_fast_forward() noexcept { stall_streak_ = 0; }

  [[nodiscard]] const std::optional<Divergence>& divergence() const noexcept {
    return divergence_;
  }
  /// Grants compared against the reference (chained grants included).
  [[nodiscard]] std::uint64_t grants_checked() const noexcept {
    return grants_checked_;
  }
  [[nodiscard]] const CheckOptions& options() const noexcept { return opts_; }
  [[nodiscard]] obs::SwitchProbe& probe() noexcept { return probe_; }

 private:
  struct ForwardSink final : obs::TraceSink {
    DifferentialChecker* self = nullptr;
    void on_event(const obs::Event& e) override { self->handle(e); }
  };

  void handle(const obs::Event& e);
  void check_grant(const obs::Event& e, bool chained);
  void check_circuit(const obs::Event& e, const ReferenceOutput& ref,
                     bool gl_ok);
  void end_cycle(Cycle t);
  void compare_state(Cycle t);
  /// Why output o's arbiter state disagrees with its reference at `t`
  /// (both already advanced to `t`), or "" when it matches.
  [[nodiscard]] std::string state_mismatch(OutputId o, Cycle t) const;
  /// Full ascending sweep of outputs 0..last at `t` (their arbiters already
  /// advanced): records the first mismatch, if any.
  void sweep_state(Cycle t, OutputId last);
  /// Packet conservation over every flow, ascending; fails on the first
  /// flow that breaks it.
  void check_conservation(Cycle t);
  void fail(Cycle t, OutputId o, std::string kind, std::string detail);
  [[nodiscard]] std::string dump_output_state(OutputId o) const;
  [[nodiscard]] std::string dump_requests(OutputId o) const;

  sw::CrossbarSwitch& sim_;
  CheckOptions opts_;
  ForwardSink sink_;
  obs::Tracer tracer_;
  obs::SwitchProbe probe_;

  std::vector<ReferenceOutput> refs_;             // per output
  std::vector<std::vector<core::ClassRequest>> reqs_;  // per output, this cycle
  std::vector<InputId> granted_;                  // per output, this cycle
  // This cycle's bitmasks (radix <= 64): outputs with >= 1 request, outputs
  // granted (Grant or ChainGrant) and inputs granted.
  std::uint64_t requested_outputs_ = 0;
  std::uint64_t granted_outputs_ = 0;
  std::uint64_t granted_inputs_ = 0;
  bool single_request_ = false;
  std::uint64_t requesting_inputs_ = 0;           // this cycle (SingleRequest)
  // Full state sweeps: the first stepped cycle >= next_sweep_ sweeps every
  // output (kNoCycle under CounterPolicy::None, which never wraps);
  // `unswept_` says a stepped cycle compared only granted outputs since the
  // last sweep, so run() ends with one at `last_cycle_`.
  Cycle next_sweep_ = kNoCycle;
  Cycle last_cycle_ = 0;
  bool unswept_ = false;
  // Progress guard, armed only for matching-engine configs (config.engine):
  // consecutive cycles with >= 1 request but zero grants switch-wide. An
  // honest engine matches at least one eligible pair per cycle (SW-QPS's
  // window gaps are bounded by T + the longest packet), so a streak past the
  // threshold means the engine starves the switch. NOT armed for the classic
  // paths: GL Stall policing under SingleRequest can legitimately hold an
  // output for thousands of cycles.
  bool progress_guard_ = false;
  Cycle stall_streak_ = 0;

  // Packet conservation, per flow. `conservation_suspect_` is set when a
  // buffered or delivered count moves past its bound; only then does
  // end_cycle walk every flow.
  std::vector<std::uint64_t> created_, buffered_, delivered_;
  bool conservation_suspect_ = false;

  // Circuit leg (constructed only when enabled). The request vector and
  // arbitration trace are reused across every grant check so the per-grant
  // circuit leg stays allocation-free at steady state.
  std::optional<circuit::CircuitArbiter> circuit_;
  std::optional<arb::LrgArbiter> circuit_lrg_;
  std::vector<circuit::CrosspointRequest> creqs_;
  std::optional<circuit::ArbitrationTrace> ctrace_;

  std::optional<Divergence> divergence_;
  std::uint64_t grants_checked_ = 0;
};

}  // namespace ssq::check
