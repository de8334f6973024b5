#include "seqcube/view_store.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>

#include "common/status.h"
#include "net/wire.h"
#include "relation/csv.h"
#include "relation/serialize.h"

namespace sncube {
namespace {

constexpr std::uint32_t kMagic = 0x534E4356;  // "SNCV"
constexpr std::uint32_t kVersion = 1;

// Throws SncubeCorruptionError(what) unless `ok`.
void Require(bool ok, std::string_view what) {
  if (!ok) throw SncubeCorruptionError(std::string(what));
}

// Writes the header of `head`, with the row count summed over `parts`, then
// the parts' rows in order, serialized through `buf` at most
// ViewStore::kWriteChunkBytes at a time.
void WriteView(const std::filesystem::path& path, const ViewResult& head,
               std::span<const Relation* const> parts,
               [[maybe_unused]] const Schema& schema,
               ByteBuffer& buf) {
  std::uint64_t rows = 0;
  for (const Relation* rel : parts) rows += rel->size();
#ifndef NDEBUG
  // Build infers each cardinality from its column and refresh rejects delta
  // keys outside it, so every stored key lies below its cardinality.
  const std::vector<int> dims = head.id.DimList();
  for (const Relation* rel : parts) {
    for (std::size_t r = 0; r < rel->size(); ++r) {
      for (std::size_t c = 0; c < dims.size(); ++c) {
        SNCUBE_DCHECK(rel->key(r, static_cast<int>(c)) <
                      schema.cardinality(dims[c]));
      }
    }
  }
#endif
  buf.clear();
  PutViewHeader(buf, head, rows);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw SncubeIoError("cannot open view file for writing: " + path.string());
  }
  const auto flush = [&] {
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };
  for (const Relation* rel : parts) {
    const std::size_t row_bytes = rel->RowBytes();
    std::size_t begin = 0;
    while (begin < rel->size()) {
      const std::size_t room =
          (ViewStore::kWriteChunkBytes - buf.size()) / row_bytes;
      if (room == 0) {
        flush();
        continue;
      }
      const std::size_t end = std::min(rel->size(), begin + room);
      SerializeRows(*rel, begin, end, buf);
      begin = end;
    }
  }
  flush();
  out.close();
  if (!out) throw SncubeIoError("short write to view file: " + path.string());
}

}  // namespace

void PutViewHeader(ByteBuffer& buf, const ViewResult& view,
                   std::uint64_t rows) {
  WirePut(buf, kMagic);
  WirePut(buf, kVersion);
  WirePut(buf, view.id.mask());
  WirePut(buf, static_cast<std::uint32_t>(view.rel.width()));
  WirePutVector(buf, std::vector<std::uint8_t>(view.order.begin(),
                                               view.order.end()));
  WirePut(buf, rows);
}

ViewResult GetView(WireReader& reader, ViewId expect) {
  Require(reader.Get<std::uint32_t>() == kMagic, "persisted view: bad magic");
  Require(reader.Get<std::uint32_t>() == kVersion,
          "persisted view: unsupported version");
  ViewResult vr;
  vr.id = ViewId(reader.Get<std::uint32_t>());
  Require(vr.id == expect, "persisted view: holds a different view");
  const auto width = reader.Get<std::uint32_t>();
  Require(width == static_cast<std::uint32_t>(vr.id.dim_count()),
          "persisted view: width disagrees with mask");
  // The order says how the rows are sorted, and every reader that searches
  // or merges a view trusts it: it must name each of the view's dimensions
  // exactly once.
  std::uint32_t seen = 0;
  bool permutation = true;
  for (const std::uint8_t dim : reader.GetVector<std::uint8_t>()) {
    const std::uint32_t bit = dim < ViewId::kMaxDims ? 1u << dim : 0;
    permutation = permutation && (vr.id.mask() & bit & ~seen) != 0;
    seen |= bit;
    vr.order.push_back(dim);
  }
  Require(permutation && seen == vr.id.mask(),
          "persisted view: sort order is not a permutation of its dimensions");
  const auto rows = reader.Get<std::uint64_t>();
  vr.rel = Relation(static_cast<int>(width));
  // rows is untrusted: bound it by the remaining payload before the
  // rows * RowBytes() multiplication below can wrap.
  Require(rows <= reader.remaining() / vr.rel.RowBytes(),
          "persisted view: row count exceeds payload");
  vr.rel.Reserve(rows);
  DeserializeRows(reader.GetBytes(rows * vr.rel.RowBytes()), vr.rel);
  Require(reader.AtEnd(), "persisted view: trailing bytes");
  return vr;
}

ByteBuffer EncodeViewFrame(std::uint64_t tag, const ViewResult& view) {
  ByteBuffer buf;
  WirePut(buf, tag);
  WirePut(buf, static_cast<std::uint8_t>(view.selected ? 1 : 0));
  PutViewHeader(buf, view, view.rel.size());
  SerializeRows(view.rel, 0, view.rel.size(), buf);
  return buf;
}

ViewResult DecodeViewFrame(std::span<const std::byte> bytes,
                           std::uint64_t tag, ViewId expect) {
  WireReader reader(bytes);
  Require(reader.Get<std::uint64_t>() == tag, "view frame: wrong tag");
  const auto selected = reader.Get<std::uint8_t>();
  Require(selected <= 1, "view frame: selected flag is not 0 or 1");
  ViewResult vr = GetView(reader, expect);
  vr.selected = selected == 1;
  return vr;
}

ViewStore::ViewStore(std::filesystem::path dir) : dir_(std::move(dir)) {}

std::filesystem::path ViewStore::PathFor(ViewId id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "v%05x.sncv", id.mask());
  return dir_ / name;
}

void ViewStore::SaveSchema(const Schema& schema) const {
  const std::filesystem::path path = dir_ / "manifest.txt";
  std::ofstream out(path);
  out << "sncube-manifest 1\n" << schema.dims() << "\n";
  for (int i = 0; i < schema.dims(); ++i) {
    out << schema.name(i) << ' ' << schema.cardinality(i) << "\n";
  }
  out.close();
  if (!out) throw SncubeIoError("cannot write manifest: " + path.string());
}

Schema ViewStore::LoadSchema() const {
  const std::filesystem::path path = dir_ / "manifest.txt";
  std::ifstream in(path);
  if (!in.good()) {
    throw SncubeIoError("no cube in " + dir_.string() + ": cannot read " +
                        path.string());
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  lines.resize(std::max<std::size_t>(lines.size(), 2));
  const auto at = [&](std::size_t i) {
    return "malformed manifest " + path.string() + ", line " +
           std::to_string(i + 1) + ": expected ";
  };
  int d = 0;
  Require(lines[0] == "sncube-manifest 1", at(0) + "\"sncube-manifest 1\"");
  Require(ParseWhole(lines[1], d) && d >= 1 && d <= ViewId::kMaxDims,
          at(1) + "a dimension count in [1, " +
              std::to_string(ViewId::kMaxDims) + "]");
  const std::size_t end = 2 + static_cast<std::size_t>(d);
  Require(lines.size() <= end, at(end) + "no more lines");
  lines.resize(end);  // a missing line reads as empty and is rejected below
  std::vector<std::string> names;
  std::vector<std::uint32_t> cards;
  for (std::size_t i = 2; i < end; ++i) {
    const std::string_view line = lines[i];
    const std::size_t space = line.rfind(' ');  // names may hold spaces
    std::uint32_t card = 0;
    // Schema would re-sort ascending cardinalities, moving names away from
    // the dimension indices the view files' masks use.
    Require(space != 0 && space != std::string_view::npos &&
                ParseWhole(line.substr(space + 1), card) && card >= 1 &&
                (cards.empty() || card <= cards.back()),
            at(i) + "\"<name> <cardinality>\", 1 <= cardinality <= the "
                    "previous line's");
    names.emplace_back(line.substr(0, space));
    cards.push_back(card);
  }
  return Schema(cards, names);
}

void ViewStore::SaveCube(const CubeResult& cube, const Schema& schema) const {
  SaveCube(std::span<const CubeResult>(&cube, 1), schema);
}

void ViewStore::SaveCube(std::span<const CubeResult> shards,
                         const Schema& schema) const {
  if (shards.empty()) throw SncubeError("SaveCube needs at least one shard");
  // Check every shard before touching the directory.
  for (const auto& [id, vr] : shards[0].views) {
    if (!vr.selected) continue;
    for (std::size_t s = 1; s < shards.size(); ++s) {
      const auto it = shards[s].views.find(id);
      const char* problem = nullptr;
      if (it == shards[s].views.end()) {
        problem = "view missing";
      } else if (it->second.rel.width() != vr.rel.width()) {
        problem = "width disagrees with shard 0";
      } else if (it->second.order != vr.order) {
        problem = "sort order disagrees with shard 0";
      }
      if (problem != nullptr) {
        throw SncubeError("shard " + std::to_string(s) + ", view " +
                          id.Name(schema) + ": " + problem);
      }
    }
  }

  std::error_code made;
  std::filesystem::create_directories(dir_, made);
  if (made) {
    throw SncubeIoError("cannot create cube directory " + dir_.string() +
                        ": " + made.message());
  }
  for (ViewId id : List()) {
    const auto it = shards[0].views.find(id);
    if (it != shards[0].views.end() && it->second.selected) continue;
    std::error_code ec;
    std::filesystem::remove(PathFor(id), ec);
    if (ec) {
      throw SncubeIoError("cannot remove stale view file " +
                          PathFor(id).string() + ": " + ec.message());
    }
  }
  SaveSchema(schema);

  ByteBuffer buf;
  buf.reserve(kWriteChunkBytes);
  std::vector<const Relation*> parts(shards.size());
  for (const auto& [id, vr] : shards[0].views) {
    if (!vr.selected) continue;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      parts[s] = &shards[s].views.at(id).rel;
    }
    WriteView(PathFor(id), vr, parts, schema, buf);
  }
}

ViewResult ViewStore::Load(ViewId id) const {
  std::ifstream in(PathFor(id), std::ios::binary);
  if (!in.good()) {
    throw SncubeIoError("view file missing: " + PathFor(id).string());
  }
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  ByteBuffer bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    throw SncubeIoError("short read from view file " + PathFor(id).string());
  }
  WireReader reader(bytes);
  try {
    return GetView(reader, id);
  } catch (const SncubeCorruptionError& e) {
    throw SncubeCorruptionError(PathFor(id).string() + ": " + e.what());
  }
}

std::vector<ViewId> ViewStore::List() const {
  std::vector<ViewId> ids;
  if (!std::filesystem::exists(dir_)) return ids;  // nothing saved yet
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 11 || name.compare(0, 1, "v") != 0 ||
        entry.path().extension() != ".sncv") {
      continue;
    }
    std::uint32_t mask = 0;
    if (!ParseWhole(std::string_view(name).substr(1, 5), mask, 16)) {
      continue;  // not a view file
    }
    ids.emplace_back(mask);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

CubeResult ViewStore::LoadCube() const {
  CubeResult cube;
  for (ViewId id : List()) {
    ViewResult vr = Load(id);
    cube.views[id] = std::move(vr);
  }
  return cube;
}

}  // namespace sncube
