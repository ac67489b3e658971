// Tests for src/check/: the differential oracle, the scenario fuzzer, the
// shrinker, and — crucially — the self-test that a deliberately planted
// defect in the reference model is caught and shrunk to a tiny repro. A
// checker that never fires is worse than none.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "arb/matching.hpp"
#include "check/differential.hpp"
#include "check/reference.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "check/trace.hpp"
#include "sim/error.hpp"
#include "traffic/flow.hpp"

namespace ssq::check {
namespace {

constexpr std::uint64_t kCampaignSeed = 12345;

/// First generated scenario (index < limit) that fails under `opts`.
Scenario find_failing(const CheckOptions& opts, std::uint64_t limit) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    Scenario s = generate_scenario(i, kCampaignSeed);
    if (run_scenario(s, opts).failed) return s;
  }
  ADD_FAILURE() << "no generated scenario tripped the planted bug in "
                << limit << " tries";
  return generate_scenario(0, kCampaignSeed);
}

TEST(Differential, RandomScenariosAgreeThreeWays) {
  std::uint64_t grants = 0;
  for (std::uint64_t i = 0; i < 25; ++i) {
    const Scenario s = generate_scenario(i, kCampaignSeed);
    const RunResult r = run_scenario(s);
    EXPECT_FALSE(r.failed) << s.name << ": " << r.kind << " at cycle "
                           << r.fail_cycle << "\n" << r.detail;
    grants += r.grants_checked;
  }
  // The campaign must actually exercise arbitration, not vacuously pass.
  EXPECT_GT(grants, 1000u);
}

TEST(Differential, FaultedScenariosKeepInvariantChecks) {
  // Find a generated scenario that carries a fault plan; the checker must
  // drop to invariants-only (no oracle false positives) yet still verify
  // grant uniqueness and packet conservation.
  for (std::uint64_t i = 0; i < 50; ++i) {
    Scenario s = generate_scenario(i, kCampaignSeed);
    if (!s.has_faults()) continue;
    ScenarioRun rig = instantiate(s);
    DifferentialChecker checker(*rig.sim);
    EXPECT_FALSE(checker.options().differential);
    EXPECT_TRUE(checker.run(s.cycles))
        << checker.divergence()->kind << "\n" << checker.divergence()->detail;
    return;
  }
  FAIL() << "no generated scenario carried a fault plan in 50 tries";
}

TEST(Differential, ChecksEveryGrantOfACleanRun) {
  // Find a generated scenario on the classic single-request path (engine
  // scenarios run invariants-only and would make this vacuous).
  for (std::uint64_t i = 0; i < 50; ++i) {
    const Scenario s = generate_scenario(i, kCampaignSeed);
    if (s.has_faults() || s.matching_engine != arb::MatchKind::None) continue;
    ScenarioRun rig = instantiate(s);
    DifferentialChecker checker(*rig.sim);
    ASSERT_TRUE(checker.run(s.cycles));
    EXPECT_TRUE(checker.options().differential);
    EXPECT_GT(checker.grants_checked(), 0u);
    return;
  }
  FAIL() << "no clean engine-free scenario generated in 50 tries";
}

TEST(Differential, EveryMatchingEngineRunsCleanUnderInvariants) {
  // The engine knob forced onto the same handful of generated scenarios:
  // every engine must pass the invariant checks (grant uniqueness, packet
  // conservation, progress) on traffic it did not pick itself.
  std::uint64_t grants = 0;
  for (const auto kind : {arb::MatchKind::Islip, arb::MatchKind::Qps,
                          arb::MatchKind::SwQps, arb::MatchKind::Ssvc}) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      Scenario s = generate_scenario(i, kCampaignSeed);
      s.matching_engine = kind;
      s.match_iterations = 2;
      s.packet_chaining = false;
      const RunResult r = run_scenario(s);
      EXPECT_FALSE(r.failed)
          << s.name << " on " << arb::match_kind_name(kind) << ": " << r.kind
          << " at cycle " << r.fail_cycle << "\n" << r.detail;
      grants += r.grants_checked;
    }
  }
  EXPECT_GT(grants, 1000u) << "engine sweep exercised too little arbitration";
}

class PlantedBugP : public ::testing::TestWithParam<PlantedBug> {};

TEST_P(PlantedBugP, IsCaughtByTheFuzzer) {
  CheckOptions opts;
  opts.bug = GetParam();
  bool caught = false;
  for (std::uint64_t i = 0; i < 60 && !caught; ++i) {
    const Scenario s = generate_scenario(i, kCampaignSeed);
    caught = run_scenario(s, opts).failed;
  }
  EXPECT_TRUE(caught) << "planted bug '" << to_string(GetParam())
                      << "' survived 60 scenarios undetected";
}

INSTANTIATE_TEST_SUITE_P(
    AllBugs, PlantedBugP,
    ::testing::Values(PlantedBug::GbVtickOffByOne,
                      PlantedBug::LrgNoMoveToBack,
                      PlantedBug::GlAllowanceOffByOne,
                      PlantedBug::SkipEpochWrap,
                      PlantedBug::EngineStarve),
    [](const auto& pinfo) { return std::string(to_string(pinfo.param)); });

// Every divergence each planted bug produces over a fixed set of generated
// scenarios, as "index@cycle:output:kind" ("-" = no output). The deep state
// compare is event-driven (granted outputs per cycle, full sweeps at epoch
// boundaries); these are the divergences the sweep-every-output-every-cycle
// checker reported, so the first broken cycle, output and kind may not move.
std::string divergences_of(PlantedBug bug) {
  CheckOptions opts;
  opts.bug = bug;
  std::ostringstream os;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const RunResult r = run_scenario(generate_scenario(i, kCampaignSeed), opts);
    if (!r.failed) continue;
    os << i << '@' << r.fail_cycle << ':';
    if (r.output == kNoPort) {
      os << '-';
    } else {
      os << r.output;
    }
    os << ':' << r.kind << ' ';
  }
  return os.str();
}

TEST(Differential, PlantedBugsDivergeAtPinnedCycleOutputAndKind) {
  EXPECT_EQ(divergences_of(PlantedBug::GbVtickOffByOne),
            "1@1:13:state_mismatch 2@4:14:state_mismatch "
            "6@0:1:state_mismatch 12@1056:1:state_mismatch "
            "13@43:6:state_mismatch 14@9:2:state_mismatch "
            "15@7:0:state_mismatch 17@6:6:state_mismatch "
            "21@0:0:state_mismatch 22@14:1:state_mismatch "
            "23@52:7:state_mismatch ");
  EXPECT_EQ(divergences_of(PlantedBug::LrgNoMoveToBack),
            "1@0:0:state_mismatch 2@0:28:state_mismatch "
            "6@0:0:state_mismatch 12@0:1:state_mismatch "
            "13@0:3:state_mismatch 14@0:1:state_mismatch "
            "17@0:3:state_mismatch 20@18:1:state_mismatch "
            "21@0:0:state_mismatch 22@0:3:state_mismatch "
            "23@0:7:state_mismatch ");
  EXPECT_EQ(divergences_of(PlantedBug::GlAllowanceOffByOne),
            "12@537:4:missed_grant 17@1099:6:winner_mismatch "
            "21@602:6:missed_grant 23@9:3:missed_grant ");
  EXPECT_EQ(divergences_of(PlantedBug::SkipEpochWrap),
            "2@32:14:state_mismatch 6@256:1:state_mismatch "
            "12@1072:1:state_mismatch 13@64:6:state_mismatch "
            "14@64:2:state_mismatch 15@256:0:state_mismatch "
            "21@32:0:state_mismatch 22@64:1:state_mismatch ");
  EXPECT_EQ(divergences_of(PlantedBug::EngineStarve),
            "0@154:-:starvation 1@127:-:starvation 2@127:-:starvation "
            "3@127:-:starvation 4@127:-:starvation 5@127:-:starvation "
            "6@127:-:starvation 7@127:-:starvation 8@140:-:starvation "
            "9@127:-:starvation 10@174:-:starvation 11@128:-:starvation "
            "12@127:-:starvation 13@127:-:starvation 14@127:-:starvation "
            "15@134:-:starvation 16@127:-:starvation 17@127:-:starvation "
            "18@127:-:starvation 19@148:-:starvation 20@131:-:starvation "
            "21@127:-:starvation 22@127:-:starvation 23@127:-:starvation ");
}

/// Radix-4 scenario whose only flow is BE from input 0 to output 1, so
/// output 3 is never granted; epochs are 16 cycles. Stepped every cycle so
/// epoch boundaries land on stepped cycles.
Scenario one_flow_scenario(core::CounterPolicy policy) {
  Scenario s;
  s.name = "one_flow";
  s.radix = 4;
  s.ssvc.lsb_bits = 4;
  s.ssvc.policy = policy;
  s.fast_forward = false;
  traffic::FlowSpec f;
  f.src = 0;
  f.dst = 1;
  f.cls = TrafficClass::BestEffort;
  f.len_min = f.len_max = 2;
  f.inject_rate = 0.5;
  s.flows.push_back(f);
  return s;
}

TEST(Differential, FullSweepsCatchAWriteAtAnOutputNoGrantTouches) {
  // With no fault injector attached nothing but a grant or an epoch wrap
  // should move arbiter state, so a register write at an ungranted output
  // is found only by the full sweeps: at the next epoch boundary...
  {
    const Scenario s = one_flow_scenario(core::CounterPolicy::SubtractRealClock);
    ScenarioRun rig = instantiate(s);
    DifferentialChecker checker(*rig.sim);
    ASSERT_TRUE(checker.run(5));
    rig.sim->qos_arbiter(3).aux_vc_mut(2).fault_flip_value(6);  // 0 -> 64
    EXPECT_FALSE(checker.run(100));
    ASSERT_TRUE(checker.divergence().has_value());
    const Divergence& d = *checker.divergence();
    EXPECT_EQ(d.kind, "state_mismatch");
    EXPECT_EQ(d.cycle, 16u);
    EXPECT_EQ(d.output, 3u);
    EXPECT_NE(d.detail.find("auxVC[2] value: sim 48, ref 0"),
              std::string::npos)
        << d.detail;
  }
  // ...and, with no epoch wraps under CounterPolicy::None, at the end of
  // run(): the last stepped cycle.
  {
    const Scenario s = one_flow_scenario(core::CounterPolicy::None);
    ScenarioRun rig = instantiate(s);
    DifferentialChecker checker(*rig.sim);
    ASSERT_TRUE(checker.run(5));
    rig.sim->qos_arbiter(3).aux_vc_mut(2).fault_flip_value(6);
    EXPECT_FALSE(checker.run(100));
    ASSERT_TRUE(checker.divergence().has_value());
    const Divergence& d = *checker.divergence();
    EXPECT_EQ(d.kind, "state_mismatch");
    EXPECT_EQ(d.cycle, 104u);
    EXPECT_EQ(d.output, 3u);
    EXPECT_NE(d.detail.find("auxVC[2] value: sim 64, ref 0"),
              std::string::npos)
        << d.detail;
  }
}

TEST(Shrink, OffByOneShrinksToATinyRepro) {
  CheckOptions opts;
  opts.bug = PlantedBug::GbVtickOffByOne;
  const Scenario failing = find_failing(opts, 60);

  const ShrinkResult sh = shrink(failing, opts);
  EXPECT_LE(sh.scenario.cycles, 10u) << "shrunk repro still "
                                     << sh.scenario.cycles << " cycles";
  EXPECT_LE(sh.scenario.flows.size(), 2u);
  EXPECT_TRUE(sh.failure.failed);

  // The minimised scenario must still reproduce, including after a
  // serialise/parse round trip (that file is what gets committed).
  std::ostringstream out;
  write_scenario(out, sh.scenario);
  std::istringstream in(out.str());
  const Scenario reloaded = parse_scenario(in, "repro");
  EXPECT_TRUE(run_scenario(reloaded, opts).failed);
  // ...and pass once the defect is gone: the repro blames the bug, not the
  // scenario.
  EXPECT_FALSE(run_scenario(reloaded).failed);
}

TEST(Scenario, SerialisationRoundTripsExactly) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Scenario s = generate_scenario(i, 0xfeedULL);
    std::ostringstream first;
    write_scenario(first, s);
    std::istringstream in(first.str());
    const Scenario back = parse_scenario(in, "round-trip");
    std::ostringstream second;
    write_scenario(second, back);
    // Byte-equal re-serialisation covers every field, including u64 seeds
    // (which would not survive a double round trip) and full-precision
    // rates.
    EXPECT_EQ(first.str(), second.str()) << "scenario " << i;
    EXPECT_EQ(s.seed, back.seed);
    EXPECT_EQ(s.faults.seed, back.faults.seed);
  }
}

TEST(Scenario, GeneratorIsDeterministic) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::ostringstream a, b;
    write_scenario(a, generate_scenario(i, 42));
    write_scenario(b, generate_scenario(i, 42));
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(Scenario, ParserRejectsGarbageWithContext) {
  std::istringstream bad("scenario name=x seed=1 cycles=10\nradix 8\n"
                         "flow src=0 dst=99 class=be inject=bernoulli "
                         "load=0.1\n");
  EXPECT_THROW(
      { [[maybe_unused]] auto s = parse_scenario(bad, "bad"); }, ConfigError);
  std::istringstream junk("wibble a=1\n");
  EXPECT_THROW({ [[maybe_unused]] auto s = parse_scenario(junk, "junk"); },
               ConfigError);
}

TEST(Reference, LrgStartsInPortOrderAndMovesToBack) {
  core::SsvcParams params;
  ReferenceOutput ref(4, params, core::OutputAllocation::none(4),
                      core::GlPolicing::Stall, 32);
  ref.advance_to(0);
  const core::ClassRequest reqs[] = {{1, TrafficClass::BestEffort, 1},
                                     {2, TrafficClass::BestEffort, 1}};
  EXPECT_EQ(ref.pick(reqs, 0).winner, 1u);  // lowest index most preferred
  ref.on_grant(1, TrafficClass::BestEffort, 0);
  EXPECT_EQ(ref.pick(reqs, 0).winner, 2u);  // 1 moved to the back
  EXPECT_EQ(ref.lrg_rank(1), 3u);
}

}  // namespace
}  // namespace ssq::check
