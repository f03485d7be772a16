// Self-tests of the benchmark's own code: the percentile helper, the metric
// tables, and the correctness gates. They run at the start of every
// benchmark run (a failure stops it before anything is measured) and alone
// under --self-test.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++failures_;
      std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    }
  }
  int failures() const { return failures_; }
  int checks() const { return checks_; }

 private:
  int checks_ = 0;
  int failures_ = 0;
};

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void TestPercentiles(Checker* c) {
  c->Expect(SupportedQuantile(1000, 0.99) == 0.99, "n=1000 supports p99");
  c->Expect(SupportedQuantile(999, 0.99) == 0.98,
            "n=999 lowers p99 to p98 (9 beyond p99)");
  c->Expect(SupportedQuantile(500, 0.99) == 0.98,
            "n=500 lowers p99 to p98 (exactly 10 beyond)");
  c->Expect(SupportedQuantile(20, 0.50) == 0.50, "n=20 supports p50");
  c->Expect(SupportedQuantile(19, 0.50) == 0.47, "n=19 lowers p50 to p47");
  c->Expect(SupportedQuantile(10, 0.50) == 0.0, "n=10 supports nothing");

  std::vector<double> v = Range(1000);
  Tail t = TailPercentile(&v, 0.99);
  c->Expect(t.q == 0.99 && t.value == 990.0 && t.n == 1000,
            "p99 of 1..1000 is 990 with n=1000");
  v = Range(500);
  t = TailPercentile(&v, 0.99);
  c->Expect(t.q == 0.98 && t.value == 490.0 && t.n == 500,
            "p99 of 1..500 falls back to p98 = 490 with n=500");
  v = Range(5);
  t = TailPercentile(&v, 0.5);
  c->Expect(t.q == 0.0 && t.n == 5, "5 samples report no percentile");

  c->Expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  c->Expect(Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of even count");

  c->Expect(Quantile(Range(100), 0.99) == 99.0, "q0.99 of 1..100 is 99");
  c->Expect(Quantile(Range(100), 0.5) == 50.0, "q0.5 of 1..100 is 50");
  c->Expect(Quantile(Range(1000), 0.99) == 990.0, "q0.99 of 1..1000 is 990");
  c->Expect(Quantile(Range(3), 0.0) == 1.0, "q0 is the minimum");
  c->Expect(Quantile({}, 0.5) == 0.0, "quantile of nothing is 0");
  c->Expect(FastRate(Range(100), 0.99) == 99.0, "q0.99 rate of 1..100 is 99");
  c->Expect(FastTime(Range(100), 0.99) == 1.0,
            "q0.99 time of 1..100 is 1 (1 - 0.99 rounds above 0.01)");
  c->Expect(FastTime(Range(1000), 0.99) == 10.0,
            "q0.99 time of 1..1000 is 10");
  c->Expect(FastRate(Range(5), 0.99) == 5.0 && FastTime(Range(5), 0.99) == 1.0,
            "few units: q0.99 rate and time are the extremes");
  c->Expect(FastRate(Range(100), 1.0) == 100.0 &&
                FastTime(Range(100), 1.0) == 1.0,
            "q1: the fastest unit's rate and time");
}

void TestMetricNames(Checker* c) {
  std::set<std::string> seen;
  for (const std::vector<MetricSpec>* table :
       {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *table) {
      c->Expect(ValidMetricName(spec.name),
                std::string("metric name matches [A-Za-z0-9_.-]+: ") +
                    spec.name);
      c->Expect(seen.insert(spec.name).second,
                std::string("metric name used once: ") + spec.name);
    }
  }
  c->Expect(!ValidMetricName(""), "empty name rejected");
  c->Expect(!ValidMetricName("rtt p99"), "space rejected");
  c->Expect(!ValidMetricName("rtt/us"), "slash rejected");
}

bdisk::core::RunResult ConsistentRun() {
  bdisk::core::RunResult r;
  r.push_slot_frac = 0.75;
  r.pull_slot_frac = 0.25;
  r.idle_slot_frac = 0.0;
  r.requests_submitted = 100;
  r.requests_accepted = 20;
  r.requests_coalesced = 30;
  r.requests_dropped = 50;
  r.vc_requests_generated = 300;
  r.vc_cache_hits = 190;
  r.vc_filtered = 12;
  r.vc_submitted = 98;
  return r;
}

void TestSimGate(Checker* c) {
  const bdisk::core::RunResult good = ConsistentRun();
  c->Expect(CheckSimInvariants(good).empty(), "consistent run passes");

  bdisk::core::RunResult r = good;
  r.requests_accepted += 1;
  c->Expect(CheckSimInvariants(r).size() == 1,
            "perturbed requests_accepted rejected");
  r = good;
  r.vc_filtered += 1;
  c->Expect(CheckSimInvariants(r).size() == 1,
            "perturbed vc_filtered rejected");
  r = good;
  r.idle_slot_frac = 0.01;
  c->Expect(CheckSimInvariants(r).size() == 1,
            "slot fractions off 1 rejected");

  r = good;
  r.vc_cache_hits += 1;
  c->Expect(SimDigest(r) != SimDigest(good), "digest sees one counter");
}

void TestServeGate(Checker* c) {
  PeerReconcile peer;
  peer.client_id = "p0";
  peer.got_stats = true;
  peer.stats.pulls_rx = 40;
  peer.stats.slots_tx_epoch = 900;
  peer.client.pulls_sent = 40;
  peer.client.slots_rx_epoch = 900;
  bdisk::transport::TransportCounters server;
  server.pulls_rx = 40;
  c->Expect(CheckServeReconcile({peer}, server).empty(),
            "reconciled serve run passes");

  PeerReconcile bad = peer;
  bad.stats.pulls_rx = 39;
  c->Expect(!CheckServeReconcile({bad}, server).empty(),
            "STATS pulls_rx disagreeing with pulls_sent rejected");
  bad = peer;
  bad.stats.slots_tx_epoch = 901;
  c->Expect(!CheckServeReconcile({bad}, server).empty(),
            "STATS slots_tx_epoch disagreeing with slots_rx_epoch rejected");
  bad = peer;
  bad.got_stats = false;
  c->Expect(!CheckServeReconcile({bad}, server).empty(),
            "missing STATS rejected");
  bdisk::transport::TransportCounters malformed = server;
  malformed.malformed_rx = 1;
  c->Expect(!CheckServeReconcile({peer}, malformed).empty(),
            "server malformed_rx rejected");
}

}  // namespace

int RunSelfTests() {
  Checker c;
  TestPercentiles(&c);
  TestMetricNames(&c);
  TestSimGate(&c);
  TestServeGate(&c);
  std::fprintf(stderr, "self-test: %d checks, %d failed\n", c.checks(),
               c.failures());
  return c.failures();
}

}  // namespace perfbench
