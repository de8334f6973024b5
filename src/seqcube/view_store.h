// On-disk persistence for materialized views — the "output files" of the
// paper's timed runs ("all times include the time taken to read the input
// from files and write the output into files").
//
// This module owns the one byte layout of a persisted view (the `.sncv`
// view encoding below), used by the cube directory, the checkpoint shards
// (core/checkpoint.h) and the refresh snapshots (refresh/snapshot.h):
//
//   u32 magic "SNCV" | u32 version 1 | u32 mask | u32 width
//   | u64 n + n x u8 sort order | u64 rows | rows x (width x u32 key, i64)
//
// Each view of a cube is one file `v<mask-hex>.sncv` under the store
// directory holding exactly that encoding, next to a `manifest.txt` that
// records the schema so a store is self-describing. Per-rank shard stores
// simply use per-rank directories. The sealed stores wrap the same encoding
// in a view frame (EncodeViewFrame) and seal it with a CRC trailer.
//
// Writes stream: each view file is the header followed by its rows
// serialized through one buffer of at most kWriteChunkBytes, so a view is
// never copied whole in memory. A cube held as per-rank shards (ranks own
// consecutive key ranges of every view) is written by appending the shards'
// rows in rank order; the bytes equal those of the concatenated cube.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "net/wire.h"
#include "relation/schema.h"
#include "seqcube/cube_result.h"

namespace sncube {

// Appends the `.sncv` header of `view` — its mask, width and sort order —
// declaring `rows` rows. The rows follow in relation/serialize.h format.
void PutViewHeader(ByteBuffer& buf, const ViewResult& view,
                   std::uint64_t rows);

// The only view decoder: reads one `.sncv` view, header and rows, from
// `reader`, which it must consume exactly. Throws SncubeCorruptionError
// unless the magic and version match, the mask is `expect`, the width is
// the mask's dimension count, the sort order is a permutation of the
// mask's dimensions, the row count fits the payload and nothing trails.
ViewResult GetView(WireReader& reader, ViewId expect);

// The sealed stores' view frame: [u64 tag][u8 selected][.sncv view]. The
// tag names what holds the frame (a checkpoint partition index, a snapshot
// epoch). DecodeViewFrame throws SncubeCorruptionError when the tag is not
// `tag`, the selected byte is not 0 or 1, or GetView rejects the view.
ByteBuffer EncodeViewFrame(std::uint64_t tag, const ViewResult& view);
ViewResult DecodeViewFrame(std::span<const std::byte> bytes,
                           std::uint64_t tag, ViewId expect);

class ViewStore {
 public:
  // Capacity of the serialize buffer a write streams through.
  static constexpr std::size_t kWriteChunkBytes = std::size_t{1} << 20;

  // A store rooted at `dir`. Creates nothing: only SaveCube creates the
  // directory, so reading a mistyped path leaves no trace.
  explicit ViewStore(std::filesystem::path dir);

  const std::filesystem::path& dir() const { return dir_; }

  // Reads the manifest. Throws SncubeIoError naming the directory when it
  // holds none, and SncubeCorruptionError naming the manifest line when it
  // is not the header followed by exactly d lines of `name cardinality`
  // with cardinalities >= 1 and non-increasing, as SaveCube writes them.
  Schema LoadSchema() const;

  // Persists every selected view of a cube plus the schema manifest, and
  // removes every view file of a view it does not write, so the store holds
  // exactly this cube. The one-shard case of the overload below.
  void SaveCube(const CubeResult& cube, const Schema& schema) const;
  // Persists the cube whose per-view rows are the concatenation, in span
  // order, of the shards' rows. The views written are the selected views of
  // shards[0]. Before anything is written, throws SncubeError naming the
  // view when a shard lacks one of them or disagrees with shards[0] on its
  // width or sort order. An unopenable or short-written file throws
  // SncubeIoError naming it.
  void SaveCube(std::span<const CubeResult> shards, const Schema& schema) const;

  // Loads one view; throws when the file is missing or corrupt.
  ViewResult Load(ViewId id) const;
  // Loads every stored view.
  CubeResult LoadCube() const;

  // Views present on disk.
  std::vector<ViewId> List() const;

 private:
  std::filesystem::path PathFor(ViewId id) const;
  // Writes/overwrites the schema manifest.
  void SaveSchema(const Schema& schema) const;

  std::filesystem::path dir_;
};

}  // namespace sncube
