#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "data/generator.h"
#include "lattice/lattice.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"

namespace sncube {
namespace {

class ViewStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sncube_store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

ViewResult MakeView(ViewId id, std::vector<int> order, int rows) {
  ViewResult vr;
  vr.id = id;
  vr.order = std::move(order);
  vr.rel = Relation(id.dim_count());
  std::vector<Key> keys(static_cast<std::size_t>(id.dim_count()));
  for (int r = 0; r < rows; ++r) {
    for (auto& k : keys) k = static_cast<Key>(r);
    vr.rel.Append(keys, r * 7);
  }
  return vr;
}

// A cube holding the one view `vr`.
CubeResult OneView(ViewResult vr) {
  CubeResult cube;
  const ViewId id = vr.id;
  cube.views[id] = std::move(vr);
  return cube;
}

TEST_F(ViewStoreTest, SaveLoadRoundTrip) {
  ViewStore store(dir_);
  const ViewResult original = MakeView(ViewId::FromDims({0, 2}), {2, 0}, 50);
  store.SaveCube(OneView(original), Schema({50, 50, 50}));
  ASSERT_EQ(store.List(), std::vector<ViewId>{original.id});
  const ViewResult back = store.Load(original.id);
  EXPECT_EQ(back.id, original.id);
  EXPECT_EQ(back.order, original.order);
  EXPECT_EQ(back.rel, original.rel);
}

TEST_F(ViewStoreTest, SchemaManifestRoundTrip) {
  ViewStore store(dir_);
  const Schema schema({100, 50, 2}, {"alpha", "beta", "gamma"});
  store.SaveCube(CubeResult{}, schema);
  const Schema back = store.LoadSchema();
  ASSERT_EQ(back.dims(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(back.cardinality(i), schema.cardinality(i));
    EXPECT_EQ(back.name(i), schema.name(i));
  }
}

TEST_F(ViewStoreTest, ListAndLoadCube) {
  DatasetSpec spec;
  spec.rows = 1000;
  spec.cardinalities = {8, 4, 2};
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const CubeResult cube = SequentialCube(raw, schema, AllViews(3));

  ViewStore store(dir_);
  store.SaveCube(cube, schema);
  EXPECT_EQ(store.List().size(), 8u);

  const CubeResult back = store.LoadCube();
  ASSERT_EQ(back.views.size(), cube.views.size());
  for (const auto& [id, vr] : cube.views) {
    const auto it = back.views.find(id);
    ASSERT_NE(it, back.views.end());
    EXPECT_EQ(it->second.rel, vr.rel);
    EXPECT_EQ(it->second.order, vr.order);
  }
}

TEST_F(ViewStoreTest, AuxViewsNotPersisted) {
  ViewStore store(dir_);
  CubeResult cube;
  ViewResult selected = MakeView(ViewId::FromDims({0}), {0}, 3);
  ViewResult aux = MakeView(ViewId::FromDims({1}), {1}, 3);
  aux.selected = false;
  cube.views[selected.id] = std::move(selected);
  cube.views[aux.id] = std::move(aux);
  store.SaveCube(cube, Schema({4, 2}));
  EXPECT_EQ(store.List().size(), 1u);
  EXPECT_EQ(store.List(), std::vector<ViewId>{ViewId::FromDims({0})});
}

TEST_F(ViewStoreTest, OverwriteReplacesContent) {
  ViewStore store(dir_);
  store.SaveCube(OneView(MakeView(ViewId::FromDims({0}), {0}, 10)),
                 Schema({16}));
  store.SaveCube(OneView(MakeView(ViewId::FromDims({0}), {0}, 3)),
                 Schema({16}));
  EXPECT_EQ(store.Load(ViewId::FromDims({0})).rel.size(), 3u);
}

TEST_F(ViewStoreTest, MissingViewThrows) {
  ViewStore store(dir_);
  EXPECT_THROW(store.Load(ViewId::FromDims({0})), SncubeError);
  EXPECT_THROW(store.LoadSchema(), SncubeError);
}

TEST_F(ViewStoreTest, CorruptFileRejected) {
  ViewStore store(dir_);
  const ViewId id = ViewId::FromDims({0, 1});
  store.SaveCube(OneView(MakeView(id, {0, 1}, 5)), Schema({8, 8}));
  // Truncate the file.
  const auto path = dir_ / "v00003.sncv";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, 10);
  EXPECT_THROW(store.Load(id), SncubeError);
}

TEST_F(ViewStoreTest, EmptyViewPersists) {
  ViewStore store(dir_);
  store.SaveCube(OneView(MakeView(ViewId::Empty(), {}, 0)), Schema({4}));
  const ViewResult back = store.Load(ViewId::Empty());
  EXPECT_EQ(back.rel.size(), 0u);
  EXPECT_EQ(back.rel.width(), 0);
}

TEST_F(ViewStoreTest, SaveCubeRemovesViewsNotInTheCube) {
  ViewStore store(dir_);
  const Schema schema({4, 4});
  CubeResult first;
  for (ViewId id : AllViews(2)) {
    first.views[id] = MakeView(id, id.DimList(), 4);
  }
  store.SaveCube(first, schema);
  ASSERT_EQ(store.List().size(), 4u);

  // A rebuild with fewer views: the dropped ones and the non-selected one
  // must not survive to answer queries from the old cube.
  CubeResult second;
  const ViewId kept = ViewId::FromDims({0});
  second.views[kept] = MakeView(kept, {0}, 2);
  ViewResult aux = MakeView(ViewId::FromDims({1}), {1}, 2);
  aux.selected = false;
  second.views[aux.id] = std::move(aux);
  store.SaveCube(second, schema);
  EXPECT_EQ(store.List(), std::vector<ViewId>{kept});
  EXPECT_EQ(store.Load(kept).rel.size(), 2u);
}

TEST_F(ViewStoreTest, ListIgnoresFilesThatAreNotViews) {
  ViewStore store(dir_);
  const ViewId id = ViewId::FromDims({0});
  CubeResult cube;
  cube.views[id] = MakeView(id, {0}, 3);
  std::filesystem::create_directories(dir_);
  for (const char* name : {"vxyzzz.sncv", "v+0001.sncv", "notes.txt"}) {
    std::ofstream(dir_ / name) << "x";
  }
  store.SaveCube(cube, Schema({4}));
  EXPECT_EQ(store.List(), std::vector<ViewId>{id});
  EXPECT_TRUE(std::filesystem::exists(dir_ / "vxyzzz.sncv"));
}

TEST_F(ViewStoreTest, UnwritableViewPathThrowsIoErrorNamingTheFile) {
  ViewStore store(dir_);
  const ViewId id = ViewId::FromDims({0});
  std::filesystem::create_directories(dir_ / "v00001.sncv");
  CubeResult cube;
  cube.views[id] = MakeView(id, {0}, 3);
  try {
    store.SaveCube(cube, Schema({4}));
    FAIL() << "expected SncubeIoError";
  } catch (const SncubeIoError& e) {
    EXPECT_NE(std::string(e.what()).find("v00001.sncv"), std::string::npos)
        << e.what();
  }
  // A second attempt fails the same way rather than writing around it.
  EXPECT_THROW(store.SaveCube(cube, Schema({4})), SncubeIoError);
}

// Two shards of a cube over Schema({4, 4, 4}) holding views A and AB.
std::vector<CubeResult> TwoShards() {
  std::vector<CubeResult> shards(2);
  for (auto& shard : shards) {
    for (ViewId id : {ViewId::FromDims({0}), ViewId::FromDims({0, 1})}) {
      shard.views[id] = MakeView(id, id.DimList(), 3);
    }
  }
  return shards;
}

// A rejected shard set must leave the directory uncreated.
void ExpectShardsRejected(const std::filesystem::path& dir,
                          const std::vector<CubeResult>& shards,
                          const std::string& why) {
  ViewStore store(dir);
  try {
    store.SaveCube(shards, Schema({4, 4, 4}));
    FAIL() << "expected SncubeError for " << why;
  } catch (const SncubeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("view AB"), std::string::npos) << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(ViewStoreTest, ShardMissingAViewIsRejected) {
  std::vector<CubeResult> shards = TwoShards();
  shards[1].views.erase(ViewId::FromDims({0, 1}));
  ExpectShardsRejected(dir_, shards, "missing");
}

TEST_F(ViewStoreTest, ShardWidthMismatchIsRejected) {
  std::vector<CubeResult> shards = TwoShards();
  shards[1].views.at(ViewId::FromDims({0, 1})).rel = Relation(1);
  ExpectShardsRejected(dir_, shards, "width");
}

TEST_F(ViewStoreTest, ShardOrderMismatchIsRejected) {
  std::vector<CubeResult> shards = TwoShards();
  shards[1].views.at(ViewId::FromDims({0, 1})).order = {1, 0};
  ExpectShardsRejected(dir_, shards, "order");
}

std::map<std::string, std::string> ReadFiles(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

TEST_F(ViewStoreTest, ShardedSaveEqualsConcatenatedSave) {
  const Schema schema({1u << 18, 1u << 18, 8});
  const ViewId all = ViewId::Empty();
  const ViewId big = ViewId::FromDims({0, 1});
  const ViewId aux = ViewId::FromDims({2});
  // The big view spans 2.5 serialize chunks. With 4 shards its rows split
  // 30/0/50/20%: shard 1 is empty and the first chunk boundary falls inside
  // shard 2.
  const std::size_t chunk_rows =
      ViewStore::kWriteChunkBytes / Relation(big.dim_count()).RowBytes();
  const int big_rows = static_cast<int>(chunk_rows * 5 / 2);
  const std::map<int, std::vector<double>> splits = {
      {1, {1.0}}, {2, {0.45, 0.55}}, {4, {0.3, 0.0, 0.5, 0.2}}};

  CubeResult whole;
  whole.views[all] = MakeView(all, {}, 3);
  whole.views[big] = MakeView(big, {1, 0}, big_rows);
  whole.views[aux] = MakeView(aux, {2}, 5);
  whole.views[aux].selected = false;

  for (const auto& [count, split] : splits) {
    SCOPED_TRACE("shards: " + std::to_string(count));
    // Cut every view at the same fractions, so `whole` is the shards'
    // concatenation.
    std::vector<CubeResult> shards(static_cast<std::size_t>(count));
    for (const auto& [id, vr] : whole.views) {
      std::size_t begin = 0;
      double cut = 0;
      for (int s = 0; s < count; ++s) {
        cut += split[static_cast<std::size_t>(s)];
        const std::size_t end =
            s + 1 == count ? vr.rel.size()
                           : static_cast<std::size_t>(cut * vr.rel.size());
        ViewResult part = vr;
        part.rel = Relation(vr.rel.width());
        for (std::size_t r = begin; r < end; ++r) part.rel.AppendRow(vr.rel, r);
        shards[static_cast<std::size_t>(s)].views[id] = std::move(part);
        begin = end;
      }
    }

    const std::filesystem::path one = dir_ / "concatenated";
    const std::filesystem::path many = dir_ / "sharded";
    ViewStore(one).SaveCube(whole, schema);
    ViewStore(many).SaveCube(shards, schema);
    const auto expected = ReadFiles(one);
    EXPECT_EQ(expected.size(), 3u);  // manifest, all, big; not aux
    EXPECT_EQ(ViewStore(many).List(), (std::vector<ViewId>{all, big}));
    EXPECT_TRUE(ReadFiles(many) == expected);
    EXPECT_EQ(ViewStore(many).Load(big).rel, whole.views.at(big).rel);
    std::filesystem::remove_all(dir_);
  }
}

TEST_F(ViewStoreTest, ReadingAMissingStoreCreatesNothing) {
  const std::filesystem::path typo = dir_ / "typo_dir";
  const ViewStore store(typo);
  try {
    store.LoadSchema();
    FAIL() << "expected SncubeIoError";
  } catch (const SncubeIoError& e) {
    EXPECT_NE(std::string(e.what()).find(typo.string()), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(store.Load(ViewId::FromDims({0})), SncubeIoError);
  EXPECT_TRUE(store.List().empty());
  EXPECT_FALSE(std::filesystem::exists(typo));
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(ViewStoreTest, MalformedManifestIsRejected) {
  const Schema schema({6, 4}, {"D0", "D1"});
  const std::filesystem::path manifest = dir_ / "manifest.txt";
  // Each case replaces the manifest text; `line` is the line to be named.
  struct Case {
    const char* what;
    const char* text;
    int line;
  };
  const Case cases[] = {
      {"wrapped cardinality", "sncube-manifest 1\n2\nD0 -1\nD1 4\n", 3},
      {"zero cardinality", "sncube-manifest 1\n2\nD0 6\nD1 0\n", 4},
      {"missing line", "sncube-manifest 1\n2\nD0 6\n", 4},
      {"non-numeric cardinality", "sncube-manifest 1\n2\nD0 six\nD1 4\n", 3},
      {"trailing junk", "sncube-manifest 1\n2\nD0 6\nD1 4x\n", 4},
      {"extra line", "sncube-manifest 1\n2\nD0 6\nD1 4\nD2 2\n", 5},
      {"bad dimension count", "sncube-manifest 1\n0\n", 2},
      {"bad header", "sncube-manifest 2\n2\nD0 6\nD1 4\n", 1},
      {"ascending cardinalities", "sncube-manifest 1\n2\nD0 4\nD1 6\n", 4},
  };
  ViewStore store(dir_);
  store.SaveCube(CubeResult{}, schema);
  EXPECT_EQ(store.LoadSchema().cardinality(1), 4u);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::ofstream(manifest, std::ios::trunc) << c.text;
    try {
      store.LoadSchema();
      ADD_FAILURE() << "expected SncubeCorruptionError";
    } catch (const SncubeCorruptionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(manifest.string()), std::string::npos) << what;
      EXPECT_NE(what.find("line " + std::to_string(c.line)), std::string::npos)
          << what;
    }
  }
}

TEST_F(ViewStoreTest, LoadRejectsOrderThatIsNotAPermutation) {
  const ViewId ab = ViewId::FromDims({0, 1});
  ViewStore store(dir_);
  const Schema schema({4, 4, 4});
  for (const std::vector<int>& order :
       {std::vector<int>{0, 0}, std::vector<int>{0, 2}, std::vector<int>{1},
        std::vector<int>{1, 0, 1}}) {
    SCOPED_TRACE("order size " + std::to_string(order.size()));
    // The writer persists whatever order a view claims; the reader must not
    // believe one that cannot describe the view's rows.
    store.SaveCube(OneView(MakeView(ab, order, 4)), schema);
    EXPECT_THROW(store.Load(ab), SncubeCorruptionError);
    EXPECT_THROW(store.LoadCube(), SncubeCorruptionError);
    EXPECT_THROW(DecodeViewFrame(EncodeViewFrame(7, MakeView(ab, order, 4)),
                                 7, ab),
                 SncubeCorruptionError);
  }

  // The 2-byte edit of a genuine file: order [0,1] becomes [0,0]. The order
  // bytes follow magic, version, mask, width and the u64 length.
  store.SaveCube(OneView(MakeView(ab, {0, 1}, 4)), schema);
  EXPECT_EQ(store.Load(ab).order, (std::vector<int>{0, 1}));
  {
    std::fstream f(dir_ / "v00003.sncv",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);
    f.put('\0').put('\0');
  }
  EXPECT_THROW(store.Load(ab), SncubeCorruptionError);
}

TEST_F(ViewStoreTest, ViewFrameRoundTripsAndChecksItsTag) {
  ViewResult vr = MakeView(ViewId::FromDims({0, 2}), {2, 0}, 9);
  vr.selected = false;
  const ByteBuffer frame = EncodeViewFrame(42, vr);
  const ViewResult back = DecodeViewFrame(frame, 42, vr.id);
  EXPECT_EQ(back.id, vr.id);
  EXPECT_EQ(back.order, vr.order);
  EXPECT_EQ(back.rel, vr.rel);
  EXPECT_FALSE(back.selected);
  EXPECT_THROW(DecodeViewFrame(frame, 41, vr.id), SncubeCorruptionError);
  EXPECT_THROW(DecodeViewFrame(frame, 42, ViewId::FromDims({0})),
               SncubeCorruptionError);

  // The frame carries the cube file's view bytes unchanged after its tag
  // and selected byte.
  ViewStore store(dir_);
  vr.selected = true;
  store.SaveCube(OneView(vr), Schema({9, 9, 9}));
  std::ifstream in(dir_ / "v00005.sncv", std::ios::binary);
  const std::string file(std::istreambuf_iterator<char>(in), {});
  ASSERT_EQ(frame.size(), 9 + file.size());
  EXPECT_TRUE(std::equal(file.begin(), file.end(), frame.begin() + 9,
                         [](char a, std::byte b) {
                           return static_cast<std::byte>(a) == b;
                         }));
}

}  // namespace
}  // namespace sncube
