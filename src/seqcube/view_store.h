// On-disk persistence for materialized views — the "output files" of the
// paper's timed runs ("all times include the time taken to read the input
// from files and write the output into files").
//
// Each view is one binary file `v<mask-hex>.sncv` under the store directory:
// a fixed header (magic, format version, view mask, width, sort order) and
// the raw row payload in the wire format of relation/serialize.h. A
// `manifest.txt` records the schema so a store is self-describing. Per-rank
// shard stores simply use per-rank directories.
//
// Writes stream: each view file is the header followed by its rows
// serialized through one buffer of at most kWriteChunkBytes, so a view is
// never copied whole in memory. A cube held as per-rank shards (ranks own
// consecutive key ranges of every view) is written by appending the shards'
// rows in rank order; the bytes equal those of the concatenated cube.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "relation/schema.h"
#include "seqcube/cube_result.h"

namespace sncube {

class ViewStore {
 public:
  // Capacity of the serialize buffer a write streams through.
  static constexpr std::size_t kWriteChunkBytes = std::size_t{1} << 20;

  // Opens (creating if needed) a store rooted at `dir`.
  explicit ViewStore(std::filesystem::path dir);

  const std::filesystem::path& dir() const { return dir_; }

  // Writes/overwrites the schema manifest.
  void SaveSchema(const Schema& schema) const;
  // Reads the manifest; throws if missing or malformed.
  Schema LoadSchema() const;

  // Persists one view (fragment). Throws SncubeIoError naming the file when
  // it cannot be opened or fully written.
  void Save(const ViewResult& view) const;
  // Persists every selected view of a cube plus the schema manifest, and
  // removes every view file of a view it does not write, so the store holds
  // exactly this cube. The one-shard case of the overload below.
  void SaveCube(const CubeResult& cube, const Schema& schema) const;
  // Persists the cube whose per-view rows are the concatenation, in span
  // order, of the shards' rows. The views written are the selected views of
  // shards[0]. Before any file is written, throws SncubeError naming the
  // view when a shard lacks one of them or disagrees with shards[0] on its
  // width or sort order.
  void SaveCube(std::span<const CubeResult> shards, const Schema& schema) const;

  // Loads one view; throws when the file is missing or corrupt.
  ViewResult Load(ViewId id) const;
  // Loads every stored view.
  CubeResult LoadCube() const;

  // Views present on disk.
  std::vector<ViewId> List() const;

  bool Contains(ViewId id) const;

 private:
  std::filesystem::path PathFor(ViewId id) const;

  std::filesystem::path dir_;
};

}  // namespace sncube
