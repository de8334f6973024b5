// Crash-safe versioned snapshot store for online cube refresh.
//
// One directory holds every refresh-produced epoch of the cube plus a
// MANIFEST whose sealed lines (io/checked_file.h, " crc <8-hex>" suffix) are
// the ONLY source of truth about what is installed:
//
//   <dir>/MANIFEST                       append-only sealed records
//   <dir>/epoch_<E>/v<mask>.snap        one sealed frame per view of epoch E
//
// A `.snap` file is the view frame of seqcube/view_store.h — [u64 epoch]
// [u8 selected][.sncv view] — sealed with a CRC32C trailer.
//
// Record grammar (one per line, in swap order):
//
//   prepare <E> <mask> <mask> ...        every named view file of E is durable
//   commitshard <E> <shard>              shard has adopted E
//   commit <E>                           THE commit point: E is serving
//
// Durability protocol mirrors the checkpoint layer: data files first, the
// manifest record naming them last, every byte CRC-framed, and every write
// charged to (and fault-injected through) the caller's DiskModel — so a
// refresh plan's bitflip/tornwrite clauses corrupt snapshot bytes below the
// checksum exactly like checkpoint frames, and a refreshkill crash at any
// point leaves a manifest whose durable prefix ends cleanly. Transient disk
// errors are retried through io/checked_file.h's RetryTransientIo with no
// backoff: the coordinator has no Comm to charge a wait to, and src/refresh
// is wall-clock-banned.
//
// Recover() reads that durable prefix (first unverifiable line ends it,
// crash-truncated and torn tails included) and reduces it to: the newest
// COMMITTED epoch whose view files all verify — loaded and returned — while
// every half-installed epoch directory (prepared but never committed, or
// past the durable prefix entirely) is quarantined aside, and a committed
// epoch with damaged files falls back to the next older committed one. The
// caller serves what Recover returns; when nothing is recoverable it serves
// the pre-refresh base cube, which this store never owned. Either way the
// served bytes are a cube some completed refresh (or the initial build)
// produced in full — never a blend.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "io/disk.h"
#include "seqcube/cube_result.h"

namespace sncube {

// The manifest's durable prefix, reduced. Its first line that fails its seal
// or does not parse ends it, exactly like the checkpoint manifest.
struct SnapshotManifest {
  // Per epoch, the view masks its newest prepare record names: exactly the
  // view files the epoch consists of (trusting a directory listing instead
  // would resurrect torn writes).
  std::map<std::uint64_t, std::vector<std::uint32_t>> prepared;
  // Epochs whose commit record follows a prepare record for them, in record
  // order (ascending swaps).
  std::vector<std::uint64_t> committed;

  // The newest committed epoch, 0 when none. A refresh numbers its epoch one
  // past this — never past what Recover serves, which may be older when the
  // newest epoch's files are damaged — so no epoch number is committed twice.
  std::uint64_t LastCommitted() const {
    return committed.empty()
               ? 0
               : *std::max_element(committed.begin(), committed.end());
  }
};

struct RecoveredSnapshot {
  // False when no committed epoch could be loaded — the store is empty, its
  // manifest never reached a commit record, or every committed epoch's files
  // are damaged. The caller falls back to the pre-refresh base cube.
  bool has_cube = false;
  std::uint64_t epoch = 0;  // meaningful only when has_cube
  CubeResult cube;
  // Paths moved aside during recovery: half-installed epoch directories
  // (renamed `<dir>.quarantine`) and corrupt view files (`<file>.corrupt`),
  // kept for the post-mortem instead of deleted.
  std::vector<std::string> quarantined;
};

class SnapshotStore {
 public:
  // Creates `dir` if needed. `disk` is borrowed for the store's lifetime;
  // all reads and writes are charged to it, and its fault hook (the refresh
  // coordinator's FaultInjector, acting as rank 0) supplies transient
  // errors and silent corruption.
  SnapshotStore(std::string dir, DiskModel& disk);

  const std::filesystem::path& dir() const { return dir_; }

  // The PREPARE step: persists every view of `cube` as a sealed frame under
  // epoch_<E>/, then appends the sealed `prepare` record naming them. The
  // record is the durability commit of the data files — a crash before it
  // leaves an unnamed directory that Recover quarantines. `mid_write`, when
  // set, runs after the first view file lands (the coordinator's mid-prepare
  // kill point).
  void WriteEpoch(std::uint64_t epoch, const CubeResult& cube,
                  const std::function<void()>& mid_write = {});

  void AppendCommitShard(std::uint64_t epoch, int shard);

  // THE commit point of the two-phase swap: once this sealed line is
  // durable, Recover serves epoch `epoch`; before it, the previous
  // committed epoch (or the pre-refresh base).
  void AppendCommit(std::uint64_t epoch);

  // Retires epoch directories older than `epoch` (the manifest keeps their
  // history). The coordinator calls this with serving_epoch - 1 so the
  // predecessor stays on disk for fallback.
  void RemoveEpochDirsBelow(std::uint64_t epoch);

  // Reads and reduces the manifest alone; no view file is touched.
  SnapshotManifest ReadManifest() const;

  // Restart entry point; see the file comment for the protocol.
  RecoveredSnapshot Recover();

 private:
  std::filesystem::path EpochDir(std::uint64_t epoch) const;
  std::filesystem::path ViewPath(std::uint64_t epoch, ViewId id) const;
  std::filesystem::path ManifestPath() const { return dir_ / "MANIFEST"; }
  void AppendRecord(const std::string& text);
  // Reads and decodes one view frame of `epoch`, verifying its seal.
  ViewResult ReadView(std::uint64_t epoch, ViewId id);

  std::filesystem::path dir_;
  DiskModel& disk_;
};

}  // namespace sncube
