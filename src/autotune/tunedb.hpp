// Persistent tuning database (the "tuning service" storage layer).
//
// The paper's workflow tunes a machine once, at install time. A fleet
// operator re-runs that workflow every time a machine changes — firmware
// updates shift the P2P efficiency curve, node counts grow — and most of
// the fleet has not changed at all. The TuneDb makes the re-run cheap:
//
//  * signature_of() fingerprints a MachineProfile: a topology descriptor
//    (the record key) plus FNV-1a hashes of every timing-relevant scalar
//    and of the P2P efficiency curve sampled per log2 message band.
//  * Each stored entry remembers the band hash it was tuned under, so
//    staleness is detected per (kind, size-band): a curve perturbation
//    above 2 MB invalidates only the large-message bands.
//  * warm_tune() reuses every fresh entry and re-tunes only collectives
//    with stale or missing buckets, merging into a table identical to a
//    cold tune of the same machine.
//
// Files are versioned text like the LookupTable format (v2): a version
// header, one "machine" block per record, loud rejection of corrupt or
// newer-format files. See docs/TUNING_SERVICE.md.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "autotune/tuner.hpp"
#include "machine/machine.hpp"

namespace han::tune {

struct MachineSignature {
  /// Log2 message-size bands covered per record (1 B .. 1 GB); larger
  /// buckets clamp into the last band.
  static constexpr int kBands = 31;

  /// Topology descriptor, e.g. "aries.8x4.numa1" — the DB record key.
  /// Multi-rail machines append the rail count and a non-default policy
  /// ("aries.2x8.numa1.rail4", "...rail4.rr").
  std::string topo;
  /// Hash of every timing-relevant profile scalar (latencies, bandwidths,
  /// protocol overheads). Any change invalidates all bands; the efficiency
  /// curve is hashed per band instead so local edits stay local.
  std::uint64_t scalar_hash = 0;
  /// Per-band hash: scalar_hash mixed with the efficiency curve sampled
  /// inside [2^b, 2^(b+1)). A local curve edit only moves the bands whose
  /// interpolation it reaches.
  std::uint64_t band_hash[kBands] = {};

  const std::string& key() const { return topo; }
  std::uint64_t band(int log2_bytes) const;
  bool operator==(const MachineSignature&) const = default;
};

/// Fingerprint a profile (its Open MPI-stack parameters; vendor overrides
/// are a different stack, not a different machine).
MachineSignature signature_of(const machine::MachineProfile& profile);

class TuneDb {
 public:
  /// Text-format version written by serialize(). deserialize() rejects
  /// anything newer — a DB written by a future build is never misread.
  static constexpr int kFormatVersion = 1;

  struct Entry {
    core::HanConfig cfg;
    std::uint64_t band_hash = 0;  // signature band the entry was tuned under
  };

  struct Record {
    MachineSignature sig;
    int revision = 0;          // bumped on every ingest
    std::uint64_t stamp = 0;   // ingest order across the DB (gc priority)
    std::map<LookupTable::Key, Entry> entries;

    /// The record's configs as a plain lookup table (staleness ignored).
    LookupTable table() const;
  };

  const Record* find(const std::string& topo_key) const;

  /// Merge a tuned table under `sig`: listed buckets are inserted or
  /// replaced and stamped with the signature's current band hashes, other
  /// buckets of the record are kept. Bumps the revision.
  void ingest(const MachineSignature& sig, const LookupTable& table);

  /// The subset of `wanted` buckets that cannot be reused under `sig`:
  /// missing from the record, or tuned under a different band hash. With
  /// no record at all, every wanted bucket is stale.
  std::vector<LookupTable::Key> stale_keys(
      const MachineSignature& sig,
      const std::vector<LookupTable::Key>& wanted) const;

  /// Drop one machine's record (or only one collective's entries in it).
  /// Returns the number of entries removed.
  int invalidate(const std::string& topo_key,
                 std::optional<coll::CollKind> kind = std::nullopt);

  /// Keep the `max_records` most recently ingested records; returns the
  /// number of records dropped.
  int gc(std::size_t max_records);

  std::size_t record_count() const { return records_.size(); }
  std::size_t entry_count() const;
  const std::map<std::string, Record>& records() const { return records_; }

  std::string serialize() const;
  /// Strict parse: any malformed line, unknown field, or newer version
  /// fails with a diagnostic in `*error` (never a silent partial load).
  static bool deserialize(const std::string& text, TuneDb* out,
                          std::string* error);

  /// File round-trip; load prints the parse diagnostic to stderr (loud
  /// rejection) and returns nullopt. A missing file is also nullopt but
  /// silent — an empty DB is how every fleet starts.
  bool save(const std::string& path) const;
  static std::optional<TuneDb> load(const std::string& path);

  /// obs-style report: deterministic key order, totals first.
  std::string report_json() const;

 private:
  std::map<std::string, Record> records_;
  std::uint64_t next_stamp_ = 1;
};

/// One warm-start tuning pass (see docs/TUNING_SERVICE.md).
struct WarmStartReport {
  LookupTable table;     // merged result: reused + freshly tuned buckets
  double tuning_cost = 0.0;  // simulated seconds actually spent
  int reused = 0;        // buckets served from the DB
  int retuned = 0;       // buckets re-benchmarked this pass
  bool cold = false;     // no DB record existed for this machine
  /// Collectives that had to re-tune (stale or missing buckets), by name.
  std::vector<std::string> retuned_kinds;
};

/// Tune `tuner`'s machine against `db`: reuse every bucket whose band
/// hash still matches, re-tune only collectives with stale or missing
/// buckets, and ingest the merged table back (no ingest — and no revision
/// bump — when everything was warm). The merged table is identical to a
/// cold `tuner.tune(options)` of the same machine; only the cost differs.
WarmStartReport warm_tune(TuneDb& db, Tuner& tuner,
                          const TunerOptions& options = TunerOptions());

}  // namespace han::tune
