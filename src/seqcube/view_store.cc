#include "seqcube/view_store.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <system_error>

#include "common/status.h"
#include "net/wire.h"
#include "relation/serialize.h"

namespace sncube {
namespace {

constexpr std::uint32_t kMagic = 0x534E4356;  // "SNCV"
constexpr std::uint32_t kVersion = 1;

// Writes the header of `head`, with the row count summed over `parts`, then
// the parts' rows in order, serialized through `buf` at most
// ViewStore::kWriteChunkBytes at a time.
void WriteView(const std::filesystem::path& path, const ViewResult& head,
               std::span<const Relation* const> parts, ByteBuffer& buf) {
  std::uint64_t rows = 0;
  for (const Relation* rel : parts) rows += rel->size();
  buf.clear();
  WirePut(buf, kMagic);
  WirePut(buf, kVersion);
  WirePut(buf, head.id.mask());
  WirePut(buf, static_cast<std::uint32_t>(head.rel.width()));
  WirePutVector(buf, std::vector<std::uint8_t>(head.order.begin(),
                                               head.order.end()));
  WirePut(buf, rows);

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

ViewStore::ViewStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

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
  std::ifstream in(dir_ / "manifest.txt");
  SNCUBE_CHECK_MSG(in.good(), "missing manifest.txt");
  std::string magic;
  int version = 0;
  int d = 0;
  in >> magic >> version >> d;
  SNCUBE_CHECK_MSG(magic == "sncube-manifest" && version == 1,
                   "unrecognized manifest");
  SNCUBE_CHECK(d >= 1 && d <= ViewId::kMaxDims);
  std::vector<std::string> names(static_cast<std::size_t>(d));
  std::vector<std::uint32_t> cards(static_cast<std::size_t>(d));
  for (int i = 0; i < d; ++i) {
    in >> names[static_cast<std::size_t>(i)] >> cards[static_cast<std::size_t>(i)];
  }
  SNCUBE_CHECK_MSG(static_cast<bool>(in), "truncated manifest");
  return Schema(cards, names);
}

void ViewStore::Save(const ViewResult& view) const {
  ByteBuffer buf;
  const Relation* rel = &view.rel;
  WriteView(PathFor(view.id), view, {&rel, 1}, buf);
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
    WriteView(PathFor(id), vr, parts, buf);
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
    throw SncubeIoError("short read from view file");
  }

  WireReader reader(bytes);
  if (reader.Get<std::uint32_t>() != kMagic) {
    throw SncubeCorruptionError("bad view magic");
  }
  if (reader.Get<std::uint32_t>() != kVersion) {
    throw SncubeCorruptionError("unsupported view version");
  }
  ViewResult vr;
  vr.id = ViewId(reader.Get<std::uint32_t>());
  if (vr.id != id) {
    throw SncubeCorruptionError("view file holds a different view");
  }
  const auto width = reader.Get<std::uint32_t>();
  if (width != static_cast<std::uint32_t>(id.dim_count())) {
    throw SncubeCorruptionError("view width disagrees with its mask");
  }
  const auto order = reader.GetVector<std::uint8_t>();
  vr.order.assign(order.begin(), order.end());
  const auto rows = reader.Get<std::uint64_t>();
  vr.rel = Relation(static_cast<int>(width));
  // rows is untrusted: bound it by the remaining payload before the
  // rows * RowBytes() multiplication below can wrap.
  if (rows > reader.remaining() / vr.rel.RowBytes()) {
    throw SncubeCorruptionError("view row count exceeds file payload");
  }
  vr.rel.Reserve(rows);
  DeserializeRows(reader.GetBytes(rows * vr.rel.RowBytes()), vr.rel);
  if (!reader.AtEnd()) {
    throw SncubeCorruptionError("trailing bytes in view file");
  }
  return vr;
}

std::vector<ViewId> ViewStore::List() const {
  std::vector<ViewId> ids;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 11 || name.compare(0, 1, "v") != 0 ||
        entry.path().extension() != ".sncv") {
      continue;
    }
    std::uint32_t mask = 0;
    const char* hex = name.data() + 1;
    const auto [end, ec] = std::from_chars(hex, hex + 5, mask, 16);
    if (ec != std::errc() || end != hex + 5) continue;  // not a view file
    ids.emplace_back(mask);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool ViewStore::Contains(ViewId id) const {
  return std::filesystem::exists(PathFor(id));
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
