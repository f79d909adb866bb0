// Table / CSV formatting tests, and where a bench's ledger line lands.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/report.hpp"

using namespace ehdoe::core;

TEST(Table, AlignedOutput) {
    Table t("demo");
    t.headers({"name", "value"});
    t.row().cell("alpha").cell(1.5, 2);
    t.row().cell("b").cell(std::size_t{42});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvEscaping) {
    Table t;
    t.headers({"a", "b"});
    t.row().cell("x,y").cell("q\"q");
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
    EXPECT_NE(os.str().find("\"q\"\"q\""), std::string::npos);
}

TEST(Table, RowOfDoubles) {
    Table t;
    t.headers({"a", "b", "c"});
    t.row().cell(1.0).cell(2.0).cell(3.0);
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.columns(), 3u);
}

TEST(Format, DoubleModes) {
    EXPECT_EQ(format_double(1.5, 2), "1.50");
    EXPECT_NE(format_double(1.5e-7, 2).find("e"), std::string::npos);
    EXPECT_NE(format_double(3.2e9, 2).find("e"), std::string::npos);
    EXPECT_EQ(format_double(0.0, 1), "0.0");
}

TEST(Format, SecondsUnits) {
    EXPECT_NE(format_seconds(3.5e-9).find("ns"), std::string::npos);
    EXPECT_NE(format_seconds(2.0e-5).find("us"), std::string::npos);
    EXPECT_NE(format_seconds(5.0e-2).find("ms"), std::string::npos);
    EXPECT_NE(format_seconds(12.0).find(" s"), std::string::npos);
}

// A ledger line lands in the bench/history of the tree the library was
// built from, not in one above the working directory.
TEST(History, LineLandsInTheBuiltTreeWhateverTheWorkingDirectory) {
    namespace fs = std::filesystem;
    const std::string tag = std::to_string(::getpid());
    const fs::path elsewhere = fs::temp_directory_path() / ("ehdoe-history-cwd-" + tag);
    fs::create_directories(elsewhere / "bench" / "history");
    const std::string file = "test-report-" + tag + ".jsonl";
    const fs::path previous = fs::current_path();
    fs::current_path(elsewhere);
    const std::string written = append_history_line(file, "{\"probe\":1}");
    fs::current_path(previous);

    const fs::path tracked = fs::path(EHDOE_HISTORY_DIR) / file;
    EXPECT_EQ(written, tracked.string());
    std::ifstream in(tracked);
    std::string line;
    EXPECT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "{\"probe\":1}");
    EXPECT_FALSE(fs::exists(elsewhere / "bench" / "history" / file));
    fs::remove(tracked);
    fs::remove_all(elsewhere);
}
