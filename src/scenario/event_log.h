// The scenario event log: the replayable record of one run.
//
// Every externally observable action of a deterministic scenario run —
// acknowledged writes, checkpoint commits, injected faults, crashes,
// recoveries, each query's outcome — is appended as one fixed-width record.
// Records carry *logical* payloads only (ids, counts, result hashes), never
// wall-clock readings, so the log of a seed-replayed run is bit-identical
// across machines and runs: Fingerprint() chains CRC32C over the packed
// records and two equal-seed runs must produce equal fingerprints
// (tests/scenario_test.cc enforces it).
//
// The concurrent driver logs only driver-thread events (phase boundaries,
// checkpoint commits, crash/recover); per-reader query outcomes are
// aggregated into counters instead, since thread interleaving is genuinely
// nondeterministic there.

#ifndef MBI_SCENARIO_EVENT_LOG_H_
#define MBI_SCENARIO_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mbi::scenario {

enum class EventKind : uint8_t {
  kPhaseStart = 1,
  kPhaseEnd = 2,
  kAddAck = 3,           // a: vector id
  kCheckpointBegin = 4,  // a: committed size at call
  kCheckpointCommit = 5, // a: acknowledged-durable size
  kCheckpointFault = 6,  // a: committed size, b: status code
  kCrash = 7,            // a: live size at kill, b: acked-durable size
  kRecover = 8,          // a: recovered size
  kQuery = 9,            // a: query ordinal, b: result hash, c: packed
                         //    (completion | k<<8 | results<<24 |
                         //    shards_ok<<40 | shards_selected<<48 |
                         //    hedges<<56; fan-out fields 0 off-shard)
  kShed = 10,            // a: query ordinal
  kInvariant = 11,       // a: invariant id, b: pass(1)/fail(0)
  kOverloadBurst = 12,   // a: issued, b: shed
  // Sharded scatter-gather runs (src/shard/shard_scenario.h):
  kHedge = 13,           // a: query ordinal, b: hedges fired
  kQuarantine = 14,      // a: shard index, b: status code
};

const char* EventKindName(EventKind kind);

struct Event {
  EventKind kind = EventKind::kPhaseStart;
  uint32_t phase = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;

  friend bool operator==(const Event& x, const Event& y) {
    return x.kind == y.kind && x.phase == y.phase && x.a == y.a &&
           x.b == y.b && x.c == y.c;
  }
};

class EventLog {
 public:
  void Append(const Event& e) { events_.push_back(e); }
  void Append(EventKind kind, uint32_t phase, uint64_t a = 0, uint64_t b = 0,
              uint64_t c = 0) {
    events_.push_back(Event{kind, phase, a, b, c});
  }

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  /// Number of events of `kind`.
  size_t Count(EventKind kind) const;

  /// CRC32C chained over every record in order. Equal logs, equal
  /// fingerprints; any divergence in any field of any event changes it.
  uint32_t Fingerprint() const;

  /// Human-readable dump, one event per line — diff two of these to find
  /// the first divergence when a replay test fails.
  std::string ToString() const;

 private:
  std::vector<Event> events_;
};

}  // namespace mbi::scenario

#endif  // MBI_SCENARIO_EVENT_LOG_H_
