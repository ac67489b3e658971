#include "check/differential.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "sim/contracts.hpp"

namespace ssq::check {

namespace {

std::string class_name(TrafficClass c) { return std::string(to_string(c)); }

// Consecutive request-but-no-grant cycles tolerated under a matching engine
// before the progress guard calls starvation. Honest engines grant at least
// one pair per cycle with eligible requests; SW-QPS's emission gaps are
// bounded by window + max packet length (<= 8 + 32 flits), far below this.
constexpr Cycle kEngineStallThreshold = 128;

}  // namespace

DifferentialChecker::DifferentialChecker(sw::CrossbarSwitch& sim,
                                         CheckOptions opts)
    : sim_(sim), opts_(opts), tracer_(sink_), probe_(sim.config().radix) {
  sink_.self = this;
  const auto& cfg = sim_.config();
  const std::uint32_t radix = cfg.radix;
  single_request_ = cfg.allocation == sw::AllocationMode::SingleRequest;
  progress_guard_ = cfg.engine != arb::MatchKind::None;

  // The differential legs predict SSVC state exactly; anything else (baseline
  // arbiters, iterative matching, fault injection) falls back to
  // invariants-only checking.
  if (cfg.mode != sw::ArbitrationMode::SsvcQos || !single_request_ ||
      sim_.fault_injector() != nullptr) {
    opts_.differential = false;
  }

  if (opts_.differential) {
    refs_.reserve(radix);
    for (OutputId o = 0; o < radix; ++o) {
      refs_.emplace_back(radix, cfg.ssvc, sim_.workload().allocation_for(o),
                         cfg.gl_policing, cfg.gl_allowance_packets, opts_.bug);
      // The two sides must start from identical derived configuration; a
      // mismatch here is a harness bug, not a semantic divergence.
      auto& arb = sim_.qos_arbiter(o);
      for (InputId i = 0; i < radix; ++i) {
        SSQ_ENSURE(refs_[o].vtick(i) == arb.aux_vc(i).vtick());
      }
      SSQ_ENSURE(refs_[o].gl_vtick() == arb.gl_tracker().vtick());
    }
    const std::uint32_t gb_lanes = cfg.ssvc.gb_levels();
    // The bit-level model caps the bus at 1024 wires; a 64-port bus with 16
    // GB lanes (plus GL and BE) would need 1152, so the circuit leg bows out
    // for the largest geometries rather than mis-modelling them.
    if (opts_.circuit && radix >= 2 && radix * (gb_lanes + 2) <= 1024) {
      circuit::LaneLayout layout;
      layout.radix = radix;
      layout.gb_lanes = gb_lanes;
      layout.has_gl_lane = true;
      layout.has_be_lane = true;
      layout.bus_width = radix * (gb_lanes + 2);
      circuit_.emplace(layout);
      circuit_lrg_.emplace(radix);
      creqs_.reserve(radix);
      ctrace_.emplace(layout.bus_width);
    } else {
      opts_.circuit = false;
    }
    if (cfg.ssvc.policy != core::CounterPolicy::None) {
      // The first wrap any arbiter can take from here on: the next epoch
      // multiple at or after the cycle about to be stepped (cycle 0 never
      // wraps).
      const Cycle epoch = cfg.ssvc.epoch_cycles();
      next_sweep_ = std::max(epoch, (sim_.now() + epoch - 1) / epoch * epoch);
    }
  }

  reqs_.resize(radix);
  granted_.assign(radix, kNoPort);
  const std::size_t flows = sim_.workload().num_flows();
  created_.assign(flows, 0);
  buffered_.assign(flows, 0);
  delivered_.assign(flows, 0);

  probe_.set_tracer(&tracer_);
  sim_.attach_probe(&probe_);
}

DifferentialChecker::~DifferentialChecker() {
  if (sim_.probe() == &probe_) sim_.attach_probe(nullptr);
}

bool DifferentialChecker::step() {
  if (divergence_.has_value()) return false;
  // A fault injector attached after construction disables the differential
  // legs from this cycle on — faults legitimately break oracle predictions.
  if (opts_.differential && sim_.fault_injector() != nullptr) {
    opts_.differential = false;
  }
  const Cycle t = sim_.now();
  sim_.step();
  if (!divergence_.has_value()) end_cycle(t);
  return !divergence_.has_value();
}

bool DifferentialChecker::run(Cycle cycles) {
  const Cycle end = sim_.now() + cycles;
  while (sim_.now() < end) {
    if (!divergence_.has_value() && sim_.fast_forward_eligible() &&
        sim_.quiescent()) {
      // A quiescent eligible stretch emits no events and mutates no state
      // either model predicts from, so the checker skips it exactly as the
      // bare switch does — per-cycle checks on it would compare two
      // untouched states.
      const Cycle from = sim_.now();
      sim_.fast_forward(end);
      if (sim_.now() > from) on_fast_forward();
      if (sim_.now() >= end) break;
    }
    if (!step()) return false;
  }
  if (opts_.differential && unswept_) {
    // Outputs nobody granted since the last sweep were not compared; close
    // the run with every output at the last stepped cycle. No advance_to()
    // here: the arbiters already stand at that cycle.
    unswept_ = false;
    sweep_state(last_cycle_, sim_.config().radix - 1);
  }
  return !divergence_.has_value();
}

void DifferentialChecker::handle(const obs::Event& e) {
  if (divergence_.has_value()) return;
  switch (e.kind) {
    case obs::EventKind::PacketCreated:
      ++created_[static_cast<std::size_t>(e.flow)];
      break;
    case obs::EventKind::PacketBuffered: {
      // Only a move of buffered (delivered) can break its own bound; a
      // flow no event moved this cycle still holds last cycle's check.
      const auto f = static_cast<std::size_t>(e.flow);
      if (++buffered_[f] > created_[f]) conservation_suspect_ = true;
      break;
    }
    case obs::EventKind::Request: {
      if (single_request_ && ((requesting_inputs_ >> e.input) & 1ULL) != 0) {
        fail(e.cycle, e.output, "duplicate_request",
             "input " + std::to_string(e.input) +
                 " asserted two requests in one cycle (single-request mode)");
        return;
      }
      requesting_inputs_ |= 1ULL << e.input;
      requested_outputs_ |= 1ULL << e.output;
      reqs_[e.output].push_back(
          core::ClassRequest{e.input, e.cls, e.length != 0 ? e.length : 1});
      break;
    }
    case obs::EventKind::Grant:
      check_grant(e, /*chained=*/false);
      break;
    case obs::EventKind::ChainGrant:
      check_grant(e, /*chained=*/true);
      break;
    case obs::EventKind::Delivered: {
      const auto f = static_cast<std::size_t>(e.flow);
      if (++delivered_[f] > buffered_[f]) conservation_suspect_ = true;
      break;
    }
    default:
      break;  // arbitration internals, faults, repairs: not checked here
  }
}

void DifferentialChecker::check_grant(const obs::Event& e, bool chained) {
  ++grants_checked_;
  const OutputId o = e.output;
  const InputId i = e.input;

  // Invariants that hold in every mode: one grant per output channel and per
  // input bus per cycle (the crossbar's physical exclusivity).
  if (granted_[o] != kNoPort) {
    fail(e.cycle, o, "double_grant_output",
         "output granted twice in one cycle: first to input " +
             std::to_string(granted_[o]) + ", then to input " +
             std::to_string(i));
    return;
  }
  if (((granted_inputs_ >> i) & 1ULL) != 0) {
    fail(e.cycle, o, "double_grant_input",
         "input " + std::to_string(i) +
             " granted twice in one cycle (second grant by output " +
             std::to_string(o) + ")");
    return;
  }
  granted_[o] = i;
  granted_outputs_ |= 1ULL << o;
  granted_inputs_ |= 1ULL << i;

  if (progress_guard_ && !chained) {
    // Engine mode reports every eligible (input, output) pair as a Request;
    // a grant outside that set means the engine matched an ineligible pair.
    bool requested = false;
    for (const auto& r : reqs_[o]) {
      if (r.input == i) {
        requested = true;
        break;
      }
    }
    if (!requested) {
      fail(e.cycle, o, "unrequested_grant",
           "engine granted input " + std::to_string(i) +
               " at an output it never requested\n" + dump_requests(o));
      return;
    }
  }

  if (!opts_.differential) return;
  ReferenceOutput& ref = refs_[o];
  ref.advance_to(e.cycle);
  const bool gl_ok = ref.gl_eligible(e.cycle);
  if (chained) {
    // No arbitration ran; only the policer gates a chained GL grant.
    if (e.cls == TrafficClass::GuaranteedLatency && !gl_ok) {
      fail(e.cycle, o, "chain_gl_ineligible",
           "simulator chained a GL packet the reference policer stalls\n" +
               dump_output_state(o));
      return;
    }
  } else {
    const ReferenceOutput::Decision d = ref.pick(reqs_[o], e.cycle);
    if (d.winner != i || d.cls != e.cls) {
      std::ostringstream os;
      os << "simulator granted input " << i << " (" << class_name(e.cls)
         << "), reference picked ";
      if (d.winner == kNoPort) {
        os << "no winner";
      } else {
        os << "input " << d.winner << " (" << class_name(d.cls) << ")";
      }
      os << '\n' << dump_requests(o) << dump_output_state(o);
      fail(e.cycle, o, "winner_mismatch", os.str());
      return;
    }
    if (opts_.circuit) {
      check_circuit(e, ref, gl_ok);
      if (divergence_.has_value()) return;
    }
  }
  ref.on_grant(i, e.cls, e.cycle);
}

void DifferentialChecker::check_circuit(const obs::Event& e,
                                        const ReferenceOutput& ref,
                                        bool gl_ok) {
  // Build the crosspoint request vector the wires would see, from the
  // reference model's view of the state (levels + LRG order), so the circuit
  // leg is independent of the production arbiter.
  std::vector<circuit::CrosspointRequest>& creqs = creqs_;
  creqs.clear();
  for (const auto& r : reqs_[e.output]) {
    circuit::CrosspointRequest cr;
    cr.input = r.input;
    switch (r.cls) {
      case TrafficClass::GuaranteedBandwidth:
        cr.kind = circuit::RequestKind::Gb;
        cr.level = ref.level(r.input);
        break;
      case TrafficClass::BestEffort:
        cr.kind = circuit::RequestKind::BestEffort;
        break;
      case TrafficClass::GuaranteedLatency:
        if (gl_ok) {
          cr.kind = circuit::RequestKind::Gl;
        } else if (ref.policing() == core::GlPolicing::Demote) {
          cr.kind = circuit::RequestKind::BestEffort;  // demoted to BE lane
        } else {
          continue;  // stalled: the crosspoint does not assert
        }
        break;
    }
    creqs.push_back(cr);
  }
  if (creqs.empty()) {
    fail(e.cycle, e.output, "circuit_no_request",
         "simulator granted input " + std::to_string(e.input) +
             " but no crosspoint would assert a request\n" +
             dump_requests(e.output) + dump_output_state(e.output));
    return;
  }
  circuit_lrg_->set_matrix(ref.lrg_rows());
  circuit_->arbitrate_into(creqs, *circuit_lrg_, *ctrace_);
  const circuit::ArbitrationTrace& trace = *ctrace_;
  if (trace.winner != e.input) {
    std::ostringstream os;
    os << "bit-level circuit elected ";
    if (trace.winner == kNoPort) {
      os << "no winner";
    } else {
      os << "input " << trace.winner;
    }
    os << ", simulator granted input " << e.input << '\n'
       << dump_requests(e.output) << dump_output_state(e.output);
    fail(e.cycle, e.output, "circuit_mismatch", os.str());
  }
}

void DifferentialChecker::end_cycle(Cycle t) {
  last_cycle_ = t;
  if (opts_.differential) {
    // Only an output with requests but no grant can miss one. Set bits are
    // visited in ascending order, so the first hit is the one a loop over
    // every output reports.
    for (std::uint64_t m = requested_outputs_ & ~granted_outputs_; m != 0;
         m &= m - 1) {
      const auto o = static_cast<OutputId>(std::countr_zero(m));
      // The simulator serviced nothing at this output; the reference must
      // agree (only policer-stalled GL requests present).
      refs_[o].advance_to(t);
      const ReferenceOutput::Decision d = refs_[o].pick(reqs_[o], t);
      if (d.winner != kNoPort) {
        fail(t, o, "missed_grant",
             "simulator granted nothing, reference picked input " +
                 std::to_string(d.winner) + " (" + class_name(d.cls) + ")\n" +
                 dump_requests(o) + dump_output_state(o));
        return;
      }
    }
    if (opts_.state_compare) {
      compare_state(t);
      if (divergence_.has_value()) return;
    }
  }

  if (conservation_suspect_) {
    check_conservation(t);
    if (divergence_.has_value()) return;
    conservation_suspect_ = false;  // transient: created later this cycle
  }

  if (progress_guard_) {
    // Work conservation under a matching engine: requests pending but zero
    // grants switch-wide, sustained past the threshold, is starvation.
    if (granted_outputs_ != 0 || requesting_inputs_ == 0) {
      stall_streak_ = 0;
    } else if (++stall_streak_ >= kEngineStallThreshold) {
      fail(t, kNoPort, "starvation",
           "matching engine granted nothing for " +
               std::to_string(stall_streak_) +
               " consecutive cycles with requests pending");
      return;
    }
  }

  for (std::uint64_t m = requested_outputs_; m != 0; m &= m - 1) {
    reqs_[static_cast<OutputId>(std::countr_zero(m))].clear();
  }
  for (std::uint64_t m = granted_outputs_; m != 0; m &= m - 1) {
    granted_[static_cast<OutputId>(std::countr_zero(m))] = kNoPort;
  }
  requested_outputs_ = 0;
  granted_outputs_ = 0;
  granted_inputs_ = 0;
  requesting_inputs_ = 0;
}

void DifferentialChecker::check_conservation(Cycle t) {
  // A flow can never deliver more than it buffered nor buffer more than it
  // created. Holds in every mode, faults included.
  for (std::size_t f = 0; f < created_.size(); ++f) {
    if (buffered_[f] > created_[f] || delivered_[f] > buffered_[f]) {
      fail(t, kNoPort, "conservation",
           "flow " + std::to_string(f) + ": created " +
               std::to_string(created_[f]) + ", buffered " +
               std::to_string(buffered_[f]) + ", delivered " +
               std::to_string(delivered_[f]));
      return;
    }
  }
}

void DifferentialChecker::compare_state(Cycle t) {
  const bool sweep = t >= next_sweep_;
  const std::uint32_t radix = sim_.config().radix;
  for (OutputId o = 0; o < radix; ++o) {
    // Every arbiter still advances every stepped cycle, so its epoch wraps
    // (and their probe events) land on the same cycles as in a bare run.
    sim_.qos_arbiter(o).advance_to(t);
    if (!sweep && ((granted_outputs_ >> o) & 1ULL) == 0) continue;
    refs_[o].advance_to(t);
    if (!state_mismatch(o, t).empty()) {
      // Report what a sweep over every advanced output finds first.
      sweep_state(t, o);
      return;
    }
  }
  if (sweep) {
    const Cycle epoch = sim_.config().ssvc.epoch_cycles();
    next_sweep_ = (t / epoch + 1) * epoch;
  }
  unswept_ = !sweep;
}

void DifferentialChecker::sweep_state(Cycle t, OutputId last) {
  for (OutputId o = 0; o <= last; ++o) {
    refs_[o].advance_to(t);
    const std::string what = state_mismatch(o, t);
    if (!what.empty()) {
      fail(t, o, "state_mismatch", what + '\n' + dump_output_state(o));
      return;
    }
  }
}

std::string DifferentialChecker::state_mismatch(OutputId o, Cycle t) const {
  const auto& arb = sim_.qos_arbiter(o);
  const ReferenceOutput& ref = refs_[o];
  if (arb.epoch_rt() != ref.rt()) {
    return "epoch real time: sim " + std::to_string(arb.epoch_rt()) +
           ", ref " + std::to_string(ref.rt());
  }
  if (arb.gl_tracker().clock() != ref.gl_clock()) {
    return "GL clock: sim " + std::to_string(arb.gl_tracker().clock()) +
           ", ref " + std::to_string(ref.gl_clock());
  }
  if (!arb.gl_tracker().sane(t)) {
    return "GL clock violates the Stall policing bound";
  }
  for (InputId i = 0; i < sim_.config().radix; ++i) {
    const auto& vc = arb.aux_vc(i);
    if (vc.value() > vc.cap()) {
      return "auxVC[" + std::to_string(i) + "] above its cap: " +
             std::to_string(vc.value()) + " > " + std::to_string(vc.cap());
    }
    if (vc.value() != ref.value(i)) {
      return "auxVC[" + std::to_string(i) + "] value: sim " +
             std::to_string(vc.value()) + ", ref " +
             std::to_string(ref.value(i));
    }
    if (arb.gb_level(i) != ref.level(i) ||
        arb.sensed_gb_level(i) != ref.level(i)) {
      return "GB level[" + std::to_string(i) + "]: sim " +
             std::to_string(arb.gb_level(i)) + " (sensed " +
             std::to_string(arb.sensed_gb_level(i)) + "), ref " +
             std::to_string(ref.level(i));
    }
    if (arb.lrg().rank(i) != ref.lrg_rank(i)) {
      return "LRG rank[" + std::to_string(i) + "]: sim " +
             std::to_string(arb.lrg().rank(i)) + ", ref " +
             std::to_string(ref.lrg_rank(i));
    }
  }
  return {};
}

void DifferentialChecker::fail(Cycle t, OutputId o, std::string kind,
                               std::string detail) {
  if (divergence_.has_value()) return;
  divergence_ = Divergence{t, o, std::move(kind), std::move(detail)};
}

std::string DifferentialChecker::dump_requests(OutputId o) const {
  std::ostringstream os;
  os << "requests:";
  if (reqs_[o].empty()) os << " (none)";
  for (const auto& r : reqs_[o]) {
    os << " [in=" << r.input << ' ' << class_name(r.cls) << ']';
  }
  os << '\n';
  return os.str();
}

std::string DifferentialChecker::dump_output_state(OutputId o) const {
  std::ostringstream os;
  os << "state (sim | ref) for output " << o << ":\n";
  if (!opts_.differential || sim_.config().mode != sw::ArbitrationMode::SsvcQos) {
    os << "  (no differential state)\n";
    return os.str();
  }
  auto& arb = sim_.qos_arbiter(o);
  const ReferenceOutput& ref = refs_[o];
  os << "  rt " << arb.epoch_rt() << '|' << ref.rt() << "  gl_clock "
     << arb.gl_tracker().clock() << '|' << ref.gl_clock() << "  gl_vtick "
     << ref.gl_vtick() << '\n';
  for (InputId i = 0; i < sim_.config().radix; ++i) {
    os << "  in " << i << ": vc " << arb.aux_vc(i).value() << '|'
       << ref.value(i) << "  lvl " << arb.gb_level(i) << '|' << ref.level(i)
       << "  sensed " << arb.sensed_gb_level(i) << "  rank "
       << arb.lrg().rank(i) << '|' << ref.lrg_rank(i) << "  vtick "
       << ref.vtick(i) << '\n';
  }
  return os.str();
}

}  // namespace ssq::check
