#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "eval/legality.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "io/design_source.hpp"
#include "io/lefdef.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

namespace fs = std::filesystem;

class LefDefTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("mrlg_lefdef_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string write(const std::string& name, const std::string& text) {
        const fs::path p = dir_ / name;
        std::ofstream(p) << text;
        return p.string();
    }
    /// Flags over `args`, with a program name prepended. The fixture keeps
    /// the strings alive until the next call.
    Flags flags_of(std::vector<std::string> args) {
        args_ = std::move(args);
        std::vector<const char*> argv = {"prog"};
        for (const std::string& a : args_) {
            argv.push_back(a.c_str());
        }
        return Flags(static_cast<int>(argv.size()), argv.data());
    }
    fs::path dir_;
    std::vector<std::string> args_;
};

const char* kLef = R"(
# minimal ISPD-flavoured LEF
UNITS DATABASE MICRONS 1000 ; END UNITS
SITE core
  CLASS CORE ;
  SIZE 0.2 BY 1.6 ;
END core
MACRO INV
  CLASS CORE ;
  SIZE 0.6 BY 1.6 ;
  PIN A DIRECTION INPUT ;
    PORT
      LAYER metal1 ;
      RECT 0.0 0.6 0.2 1.0 ;
    END
  END A
  PIN Z DIRECTION OUTPUT ;
    PORT
      RECT 0.4 0.6 0.6 1.0 ;
    END
  END Z
END INV
MACRO FF2
  CLASS CORE ;
  SIZE 0.8 BY 3.2 ;
  PIN D ;
    PORT
      RECT 0.0 1.4 0.2 1.8 ;
    END
  END D
END FF2
)";

const char* kDef = R"(
VERSION 5.8 ;
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 8000 12800 ) ;
ROW r0 core 0 0 N DO 40 BY 1 STEP 200 0 ;
ROW r1 core 0 1600 N DO 40 BY 1 STEP 200 0 ;
ROW r2 core 0 3200 N DO 40 BY 1 STEP 200 0 ;
ROW r3 core 0 4800 N DO 40 BY 1 STEP 200 0 ;
ROW r4 core 0 6400 N DO 40 BY 1 STEP 200 0 ;
ROW r5 core 0 8000 N DO 40 BY 1 STEP 200 0 ;
ROW r6 core 0 9600 N DO 40 BY 1 STEP 200 0 ;
ROW r7 core 0 11200 N DO 40 BY 1 STEP 200 0 ;
REGIONS 1 ;
- fence1 ( 4000 0 ) ( 8000 12800 ) ;
END REGIONS
GROUPS 1 ;
- grp1 u_f* + REGION fence1 ;
END GROUPS
COMPONENTS 4 ;
- u1 INV + PLACED ( 410 30 ) N ;
- u2 INV + PLACED ( 1000 1650 ) N ;
- u_f1 FF2 + PLACED ( 5010 3205 ) N ;
- blk INV + FIXED ( 2000 4800 ) N ;
END COMPONENTS
NETS 2 ;
- n1 ( u1 Z ) ( u2 A ) ;
- n2 ( u2 Z ) ( u_f1 D ) ( PIN io1 ) ;
END NETS
END DESIGN
)";

TEST_F(LefDefTest, LefParsesSitesMacrosPins) {
    const LefLibrary lef = read_lef(write("a.lef", kLef));
    EXPECT_NEAR(lef.site_w_um, 0.2, 1e-9);
    EXPECT_NEAR(lef.site_h_um, 1.6, 1e-9);
    EXPECT_NEAR(lef.dbu_per_micron, 1000.0, 1e-9);
    ASSERT_EQ(lef.macros.size(), 2u);
    const LefMacro* inv = lef.find_macro("INV");
    ASSERT_NE(inv, nullptr);
    EXPECT_NEAR(inv->w_um, 0.6, 1e-9);
    EXPECT_NEAR(inv->h_um, 1.6, 1e-9);
    ASSERT_EQ(inv->pins.size(), 2u);
    EXPECT_NEAR(inv->pins.at("A").offset_x_um, 0.1, 1e-9);
    EXPECT_NEAR(inv->pins.at("Z").offset_x_um, 0.5, 1e-9);
    const LefMacro* ff = lef.find_macro("FF2");
    ASSERT_NE(ff, nullptr);
    EXPECT_NEAR(ff->h_um, 3.2, 1e-9);  // double height
}

TEST_F(LefDefTest, DefBuildsDatabase) {
    const LefLibrary lef = read_lef(write("a.lef", kLef));
    DefReadResult r = read_def(write("a.def", kDef), lef);
    EXPECT_EQ(r.design_name, "top");
    Database& db = r.db;
    EXPECT_EQ(db.floorplan().num_rows(), 8);
    EXPECT_EQ(db.floorplan().row(0).num_sites, 40);
    EXPECT_EQ(db.num_cells(), 4u);

    const Cell& u1 = db.cell(db.find_cell("u1"));
    EXPECT_EQ(u1.width(), 3);   // 0.6 / 0.2
    EXPECT_EQ(u1.height(), 1);
    EXPECT_NEAR(u1.gp_x(), 410.0 / 200.0, 1e-9);
    EXPECT_NEAR(u1.gp_y(), 30.0 / 1600.0, 1e-9);

    const Cell& ff = db.cell(db.find_cell("u_f1"));
    EXPECT_EQ(ff.height(), 2);
    EXPECT_EQ(ff.region(), 1);  // via GROUPS pattern u_f*

    const Cell& blk = db.cell(db.find_cell("blk"));
    EXPECT_TRUE(blk.fixed());
    EXPECT_TRUE(blk.placed());
    EXPECT_EQ(blk.x(), 10);
    EXPECT_EQ(blk.y(), 3);

    // Fence carved from REGIONS.
    ASSERT_EQ(db.floorplan().fences().size(), 1u);
    EXPECT_EQ(db.floorplan().fences()[0].rect, (Rect{20, 0, 20, 8}));

    // Nets: the die pin entry is skipped, offsets come from LEF pins.
    ASSERT_EQ(db.nets().size(), 2u);
    EXPECT_EQ(db.nets()[0].degree(), 2u);
    EXPECT_EQ(db.nets()[1].degree(), 2u);
    const Pin& z = db.pin(db.nets()[0].pins()[0]);
    EXPECT_NEAR(z.offset_x, 0.5 / 0.2, 1e-9);
}

TEST_F(LefDefTest, EndToEndLegalizeFromDef) {
    const LefLibrary lef = read_lef(write("a.lef", kLef));
    DefReadResult r = read_def(write("a.def", kDef), lef);
    r.db.freeze_fixed_cells();
    SegmentGrid grid = SegmentGrid::build(r.db);
    const LegalizerStats stats = legalize_placement(r.db, grid);
    EXPECT_TRUE(stats.success);
    EXPECT_TRUE(check_legality(r.db, grid).legal);
    // The fence member stayed in its region.
    const Cell& ff = r.db.cell(r.db.find_cell("u_f1"));
    EXPECT_GE(ff.x(), 20);
}

TEST_F(LefDefTest, DefRoundTripThroughWriter) {
    const LefLibrary lef = read_lef(write("a.lef", kLef));
    DefReadResult r = read_def(write("a.def", kDef), lef);
    r.db.freeze_fixed_cells();
    SegmentGrid grid = SegmentGrid::build(r.db);
    ASSERT_TRUE(legalize_placement(r.db, grid).success);
    const std::string out = write("out.def", "");
    write_def(r.db, lef, out, "top_legal");
    // The written DEF re-tokenizes: components placed, rows present.
    std::ifstream in(out);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("DESIGN top_legal ;"), std::string::npos);
    EXPECT_NE(text.find("COMPONENTS 4 ;"), std::string::npos);
    EXPECT_NE(text.find("PLACED"), std::string::npos);
    EXPECT_NE(text.find("FIXED"), std::string::npos);
    EXPECT_NE(text.find("END DESIGN"), std::string::npos);
    EXPECT_EQ(text.find("UNPLACED"), std::string::npos);
}

TEST_F(LefDefTest, MissingFileThrows) {
    EXPECT_THROW(read_lef((dir_ / "nope.lef").string()), LefDefError);
}

TEST_F(LefDefTest, LoadDesignReadsLefDef) {
    Flags flags = flags_of({"--lef", write("a.lef", kLef), "--def",
                            write("a.def", kDef), "--quiet"});
    // A program asks about its own flags before loading.
    EXPECT_TRUE(flags.has("--quiet"));
    std::optional<LoadedDesign> d = load_design(flags);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(flags.ok());
    EXPECT_EQ(d->name, "top");
    EXPECT_TRUE(d->from_def);
    EXPECT_NE(d->lef.find_macro("FF2"), nullptr);  // kept for write_def
    EXPECT_EQ(d->db.num_cells(), 4u);
    // The fixed cell is frozen into the floorplan as a blockage.
    EXPECT_EQ(d->db.floorplan().blockages().size(), 1u);
    SegmentGrid grid = SegmentGrid::build(d->db);
    EXPECT_TRUE(legalize_placement(d->db, grid).success);
}

TEST_F(LefDefTest, LoadDesignReadsABookshelfRoundTrip) {
    GenProfile p;
    p.name = "rt";
    p.num_single = 60;
    p.num_double = 6;
    const GenResult gen = generate_benchmark(p);
    write_bookshelf(gen.db, dir_.string(), "rt", /*use_gp_positions=*/true);
    Flags flags = flags_of({(dir_ / "rt.aux").string(), "--quiet"});
    EXPECT_TRUE(flags.has("--quiet"));
    std::optional<LoadedDesign> d = load_design(flags);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->name, "rt");
    EXPECT_FALSE(d->from_def);
    EXPECT_EQ(d->db.num_cells(), gen.db.num_cells());
    EXPECT_EQ(d->db.num_multi_row_cells(), gen.db.num_multi_row_cells());
}

TEST_F(LefDefTest, LoadDesignReadsNothingUnderAnUnknownFlag) {
    Flags flags = flags_of({"--lef", write("a.lef", kLef), "--def",
                            write("a.def", kDef), "--quiet"});
    EXPECT_FALSE(load_design(flags).has_value());
    EXPECT_STREQ(flags.unknown_flag(), "--quiet");
}

TEST_F(LefDefTest, LoadDesignReportsMissingFilesAsParseErrors) {
    for (const std::vector<std::string>& args :
         {std::vector<std::string>{(dir_ / "nope.aux").string()},
          std::vector<std::string>{"--lef", (dir_ / "nope.lef").string(),
                                   "--def", write("a.def", kDef)},
          std::vector<std::string>{"--lef", write("a.lef", kLef), "--def",
                                   (dir_ / "nope.def").string()}}) {
        Flags flags = flags_of(args);
        testing::internal::CaptureStderr();
        EXPECT_FALSE(load_design(flags).has_value()) << args[0];
        EXPECT_NE(testing::internal::GetCapturedStderr().find("parse error"),
                  std::string::npos);
        EXPECT_TRUE(flags.ok()) << args[0];  // not a usage error
    }
}

TEST_F(LefDefTest, LoadDesignWithoutADesignIsAUsageError) {
    for (const std::vector<std::string>& args :
         {std::vector<std::string>{}, std::vector<std::string>{"--quiet"},
          std::vector<std::string>{"--lef", "a.lef"}}) {
        Flags flags = flags_of(args);
        EXPECT_FALSE(load_design(flags).has_value());
        EXPECT_EQ(flags.bad_key(), "<design.aux>");
    }
    // A bad flag read earlier stops the load before any file is opened.
    Flags flags = flags_of({write("x.aux", "garbage"), "--rx"});
    flags.value("--rx");
    EXPECT_FALSE(load_design(flags).has_value());
    EXPECT_EQ(flags.bad_key(), "--rx");
}

TEST_F(LefDefTest, UnknownMacroThrows) {
    const LefLibrary lef = read_lef(write("a.lef", kLef));
    const std::string def = write("bad.def", R"(
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
ROW r0 core 0 0 N DO 10 BY 1 STEP 200 0 ;
COMPONENTS 1 ;
- u1 NO_SUCH_MACRO + PLACED ( 0 0 ) N ;
END COMPONENTS
END DESIGN
)");
    EXPECT_THROW(read_def(def, lef), LefDefError);
}

TEST_F(LefDefTest, NonUniformRowsThrow) {
    const LefLibrary lef = read_lef(write("a.lef", kLef));
    const std::string def = write("gap.def", R"(
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
ROW r0 core 0 0 N DO 10 BY 1 STEP 200 0 ;
ROW r1 core 0 4800 N DO 10 BY 1 STEP 200 0 ;
END DESIGN
)");
    EXPECT_THROW(read_def(def, lef), LefDefError);
}

TEST_F(LefDefTest, NonFiniteNumbersThrow) {
    // std::stod accepts "nan" and "inf"; a non-finite coordinate must be
    // rejected, never legalized.
    const LefLibrary lef = read_lef(write("a.lef", kLef));
    for (const char* bad : {"nan", "inf", "-inf", "NaN", "INFINITY"}) {
        SCOPED_TRACE(bad);
        for (const std::string& coords :
             {std::string(bad) + " 0", std::string("0 ") + bad}) {
            const std::string def = write("nan.def", R"(
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
ROW r0 core 0 0 N DO 10 BY 1 STEP 200 0 ;
COMPONENTS 1 ;
- u1 INV + PLACED ( )" + coords + R"( ) N ;
END COMPONENTS
END DESIGN
)");
            EXPECT_THROW(read_def(def, lef), LefDefError);
        }
        const std::string lef_text = std::string(R"(
SITE core
  SIZE 0.2 BY )") + bad + R"( ;
END core
)";
        EXPECT_THROW(read_lef(write("nan.lef", lef_text)), LefDefError);
    }
}

TEST_F(LefDefTest, TrailingGarbageNumbersThrow) {
    // std::stod stops at the first character that is not part of a number;
    // a token with anything after its number is rejected.
    const LefLibrary lef = read_lef(write("a.lef", kLef));
    for (const char* bad : {"1.0abc", "12x", "3.5.1", "1e", "2,5"}) {
        SCOPED_TRACE(bad);
        for (const std::string& coords :
             {std::string(bad) + " 0", std::string("0 ") + bad}) {
            const std::string def = write("junk.def", R"(
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
ROW r0 core 0 0 N DO 10 BY 1 STEP 200 0 ;
COMPONENTS 1 ;
- u1 INV + PLACED ( )" + coords + R"( ) N ;
END COMPONENTS
END DESIGN
)");
            EXPECT_THROW(read_def(def, lef), LefDefError);
        }
        const std::string lef_text = std::string(R"(
SITE core
  SIZE 0.2 BY )") + bad + R"( ;
END core
)";
        EXPECT_THROW(read_lef(write("junk.lef", lef_text)), LefDefError);
    }
}

TEST_F(LefDefTest, MisalignedMacroThrows) {
    const std::string lef_text = R"(
SITE core
  SIZE 0.2 BY 1.6 ;
END core
MACRO ODD
  SIZE 0.3 BY 1.6 ;
END ODD
)";
    const LefLibrary lef = read_lef(write("odd.lef", lef_text));
    const std::string def = write("odd.def", R"(
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
ROW r0 core 0 0 N DO 10 BY 1 STEP 200 0 ;
COMPONENTS 1 ;
- u1 ODD + PLACED ( 0 0 ) N ;
END COMPONENTS
END DESIGN
)");
    EXPECT_THROW(read_def(def, lef), LefDefError);
}

}  // namespace
}  // namespace mrlg::test
