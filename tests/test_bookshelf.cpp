#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "io/bookshelf.hpp"
#include "io/benchmark_gen.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

namespace fs = std::filesystem;

class BookshelfTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("mrlg_bs_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string& f) const {
        return (dir_ / f).string();
    }
    fs::path dir_;
};

Database small_design() {
    Database db = empty_design(4, 60);
    add_unplaced(db, "a", 5.3, 1.2, 4, 1);
    add_unplaced(db, "b", 20.0, 2.0, 3, 2);
    Cell pad("pad", 2, 1, RailPhase::kEven, true);
    pad.set_pos(50, 0);
    db.add_cell(std::move(pad));
    const NetId n = db.add_net("n0");
    db.add_pin(db.find_cell("a"), n, 2.0, 0.5);
    db.add_pin(db.find_cell("b"), n, 1.5, 1.0);
    db.add_pin(db.find_cell("pad"), n, 1.0, 0.5);
    return db;
}

TEST_F(BookshelfTest, RoundTripPreservesDesign) {
    Database db = small_design();
    write_bookshelf(db, dir_.string(), "t", /*use_gp_positions=*/true);
    const BookshelfReadResult r = read_bookshelf(path("t.aux"));
    EXPECT_EQ(r.design_name, "t");
    const Database& db2 = r.db;
    ASSERT_EQ(db2.num_cells(), 3u);
    const Cell& a = db2.cell(db2.find_cell("a"));
    EXPECT_EQ(a.width(), 4);
    EXPECT_EQ(a.height(), 1);
    EXPECT_NEAR(a.gp_x(), 5.3, 1e-6);
    EXPECT_NEAR(a.gp_y(), 1.2, 1e-6);
    const Cell& b = db2.cell(db2.find_cell("b"));
    EXPECT_EQ(b.height(), 2);
    const Cell& pad = db2.cell(db2.find_cell("pad"));
    EXPECT_TRUE(pad.fixed());
    EXPECT_EQ(pad.x(), 50);
    ASSERT_EQ(db2.nets().size(), 1u);
    EXPECT_EQ(db2.nets()[0].degree(), 3u);
    EXPECT_EQ(db2.floorplan().num_rows(), 4);
    EXPECT_EQ(db2.floorplan().row(0).num_sites, 60);
    // Pin offsets survive the centre-offset conversion.
    const Pin& p0 = db2.pin(db2.nets()[0].pins()[0]);
    EXPECT_NEAR(p0.offset_x, 2.0, 1e-6);
    EXPECT_NEAR(p0.offset_y, 0.5, 1e-6);
}

TEST_F(BookshelfTest, LegalizedPositionsWritten) {
    Database db = small_design();
    db.cell(db.find_cell("a")).set_pos(5, 1);
    db.cell(db.find_cell("b")).set_pos(20, 2);
    write_bookshelf(db, dir_.string(), "t", /*use_gp_positions=*/false);
    const BookshelfReadResult r = read_bookshelf(path("t.aux"));
    EXPECT_NEAR(r.db.cell(r.db.find_cell("a")).gp_x(), 5.0, 1e-6);
}

TEST_F(BookshelfTest, MissingFileThrows) {
    EXPECT_THROW(read_bookshelf(path("nope.aux")), ParseError);
}

TEST_F(BookshelfTest, MalformedAuxThrows) {
    std::ofstream(path("bad.aux")) << "RowBasedPlacement : foo.nodes\n";
    EXPECT_THROW(read_bookshelf(path("bad.aux")), ParseError);
}

TEST_F(BookshelfTest, UnknownNodeInPlThrows) {
    Database db = small_design();
    write_bookshelf(db, dir_.string(), "t", true);
    std::ofstream(path("t.pl"), std::ios::app) << "ghost 1 1 : N\n";
    EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);
}

TEST_F(BookshelfTest, MisalignedNodeSizeThrows) {
    Database db = small_design();
    write_bookshelf(db, dir_.string(), "t", true);
    // Append a node whose width is not a site multiple.
    std::ofstream(path("t.nodes"), std::ios::app) << "odd 0.3 1.71\n";
    EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);
}

/// Replaces the value after the first "key : " in `path` (up to the end of
/// its line) with `value`.
void set_first_value(const std::string& path, const std::string& key,
                     const std::string& value) {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    const std::size_t at = content.find(key + " : ");
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + key.size() + 3;
    content.replace(begin, content.find('\n', begin) - begin, value);
    std::ofstream(path) << content;
}

TEST_F(BookshelfTest, NonFiniteNumbersThrow) {
    // std::stod accepts "nan" and "inf"; a non-finite position or size
    // must be rejected, never legalized.
    for (const char* bad : {"nan", "inf", "-inf", "NaN", "INFINITY"}) {
        SCOPED_TRACE(bad);
        Database db = small_design();
        write_bookshelf(db, dir_.string(), "t", true);
        std::ofstream(path("t.pl"), std::ios::app)
            << "a " << bad << " 2.405 : N\n";
        EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);

        write_bookshelf(db, dir_.string(), "t", true);
        std::ofstream(path("t.pl"), std::ios::app) << "b 1 " << bad << "\n";
        EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);

        write_bookshelf(db, dir_.string(), "t", true);
        std::ofstream(path("t.nodes"), std::ios::app)
            << "odd " << bad << " 1.71\n";
        EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);

        for (const char* key :
             {"Coordinate", "Height", "Sitewidth", "SubrowOrigin"}) {
            SCOPED_TRACE(key);
            write_bookshelf(db, dir_.string(), "t", true);
            set_first_value(path("t.scl"), key, bad);
            EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);
        }
    }
}

TEST_F(BookshelfTest, TrailingGarbageNumbersThrow) {
    // std::stod and std::stol stop at the first character that is not part
    // of a number; a token with anything after its number is rejected.
    for (const char* bad : {"1.0abc", "12x", "3.5.1", "1e", "2,5"}) {
        SCOPED_TRACE(bad);
        Database db = small_design();
        write_bookshelf(db, dir_.string(), "t", true);
        std::ofstream(path("t.pl"), std::ios::app)
            << "a " << bad << " 2.405 : N\n";
        EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);

        write_bookshelf(db, dir_.string(), "t", true);
        std::ofstream(path("t.pl"), std::ios::app) << "b 1 " << bad << "\n";
        EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);

        write_bookshelf(db, dir_.string(), "t", true);
        std::ofstream(path("t.nodes"), std::ios::app)
            << "odd " << bad << " 1.71\n";
        EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);

        for (const char* key : {"Coordinate", "Height", "Sitewidth",
                                "SubrowOrigin", "NumSites"}) {
            SCOPED_TRACE(key);
            write_bookshelf(db, dir_.string(), "t", true);
            set_first_value(path("t.scl"), key, bad);
            EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);
        }
    }
}

TEST_F(BookshelfTest, CommentsAndBlankLinesIgnored) {
    Database db = small_design();
    write_bookshelf(db, dir_.string(), "t", true);
    // Prepend comments to every file.
    for (const char* f : {"t.nodes", "t.pl", "t.scl", "t.nets"}) {
        const std::string p = path(f);
        std::ifstream in(p);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        in.close();
        std::ofstream out(p);
        out << "# a comment\n\n" << content << "\n# trailing\n";
    }
    EXPECT_NO_THROW(read_bookshelf(path("t.aux")));
}

TEST_F(BookshelfTest, GeneratedBenchmarkRoundTrips) {
    GenProfile p;
    p.name = "tiny";
    p.num_single = 150;
    p.num_double = 15;
    p.density = 0.5;
    p.num_blockages = 0;
    GenResult gen = generate_benchmark(p);
    write_bookshelf(gen.db, dir_.string(), "tiny", true);
    const BookshelfReadResult r = read_bookshelf(path("tiny.aux"));
    EXPECT_EQ(r.db.num_cells(), gen.db.num_cells());
    EXPECT_EQ(r.db.nets().size(), gen.db.nets().size());
    EXPECT_EQ(r.db.pins().size(), gen.db.pins().size());
    EXPECT_EQ(r.db.floorplan().num_rows(),
              gen.db.floorplan().num_rows());
    // Spot-check gp coordinates survive within rounding noise.
    for (const char* name : {"s0", "s7", "d3"}) {
        const Cell& c1 = gen.db.cell(gen.db.find_cell(name));
        const Cell& c2 = r.db.cell(r.db.find_cell(name));
        EXPECT_NEAR(c1.gp_x(), c2.gp_x(), 1e-4) << name;
        EXPECT_NEAR(c1.gp_y(), c2.gp_y(), 1e-4) << name;
        EXPECT_EQ(c1.width(), c2.width());
        EXPECT_EQ(c1.height(), c2.height());
    }
}

}  // namespace
}  // namespace mrlg::test
