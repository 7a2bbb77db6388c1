#include "core/export_sink.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "apps/web_server.h"
#include "core/qoe_doctor.h"

namespace qoed::core {
namespace {

// Full stack fixture: one 3G page load gives every log type content.
class LogExportTest : public ::testing::Test {
 protected:
  LogExportTest() : bed_(61), server_(bed_.network(), bed_.next_server_ip()) {
    server_.add_page({.path = "/index",
                      .html_bytes = 20'000,
                      .object_count = 2,
                      .object_bytes = 8'000});
    dev_ = bed_.make_device("phone");
    dev_->attach_cellular(radio::CellularConfig::umts());
    app_ = std::make_unique<apps::BrowserApp>(*dev_);
    app_->launch();
    doctor_ = std::make_unique<QoeDoctor>(*dev_, *app_);
    BrowserDriver driver(doctor_->controller(), *app_);
    driver.load_page("www.page.sim/index",
                     [this](const BehaviorRecord& r) { record_ = r; });
    bed_.loop().run();
  }

  Testbed bed_;
  apps::WebServer server_;
  std::unique_ptr<device::Device> dev_;
  std::unique_ptr<apps::BrowserApp> app_;
  std::unique_ptr<QoeDoctor> doctor_;
  BehaviorRecord record_;
};

TEST_F(LogExportTest, TraceExportShowsDnsAndTcp) {
  const std::string out = TraceTextSink(dev_->trace().records()).to_string();
  EXPECT_NE(out.find("dns-query www.page.sim"), std::string::npos);
  EXPECT_NE(out.find("dns-resp www.page.sim ->"), std::string::npos);
  EXPECT_NE(out.find("TCP S "), std::string::npos);   // SYN
  EXPECT_NE(out.find("TCP SA "), std::string::npos);  // SYN-ACK
  EXPECT_NE(out.find("UL 10.0.0.2:"), std::string::npos);
  EXPECT_NE(out.find("DL "), std::string::npos);
}

TEST_F(LogExportTest, TraceExportHonorsLineCap) {
  const std::string out = TraceTextSink(dev_->trace().records(), 5).to_string();
  int newlines = 0;
  for (char c : out) newlines += c == '\n';
  EXPECT_EQ(newlines, 6);  // 5 packets + the "... (N more)" line
  EXPECT_NE(out.find("more)"), std::string::npos);
}

TEST_F(LogExportTest, QxdmExportShowsAllThreeRecordKinds) {
  const std::string out = QxdmTextSink(dev_->cellular()->qxdm(), 50).to_string();
  EXPECT_NE(out.find("RRC PCH -> "), std::string::npos);
  EXPECT_NE(out.find("PDU seq="), std::string::npos);
  EXPECT_NE(out.find("first2="), std::string::npos);
  EXPECT_NE(out.find("STATUS dir="), std::string::npos);
  EXPECT_NE(out.find("li=["), std::string::npos);
}

TEST_F(LogExportTest, BehaviorLogExportShowsCalibratedLatency) {
  const std::string out = BehaviorTextSink(doctor_->log()).to_string();
  EXPECT_NE(out.find("page_load"), std::string::npos);
  EXPECT_NE(out.find("calibrated="), std::string::npos);
  EXPECT_NE(out.find("url=www.page.sim/index"), std::string::npos);
  EXPECT_EQ(out.find("TIMEOUT"), std::string::npos);
}

TEST(LogExportEmptyTest, EmptyLogsProduceEmptyOutput) {
  const std::vector<net::PacketRecord> no_packets;
  EXPECT_TRUE(TraceTextSink(no_packets).to_string().empty());
  AppBehaviorLog empty;
  EXPECT_TRUE(BehaviorTextSink(empty).to_string().empty());
}

// --- crash-safe exports: temp-file + atomic rename ---

TEST_F(LogExportTest, WriteFileIsAtomicAndLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "qoed_export_atomic.txt";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  const BehaviorTextSink sink(doctor_->log());
  ASSERT_TRUE(sink.write_file(path));
  // No stray temp file, and the content equals the in-memory render.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::ostringstream got;
  got << std::ifstream(path, std::ios::binary).rdbuf();
  EXPECT_EQ(got.str(), sink.to_string());

  // Overwrite goes through the same rename; prior content fully replaced.
  ASSERT_TRUE(sink.write_file(path));
  std::ostringstream again;
  again << std::ifstream(path, std::ios::binary).rdbuf();
  EXPECT_EQ(again.str(), sink.to_string());
  std::remove(path.c_str());
}

TEST_F(LogExportTest, WriteFileToBadDirectoryFailsCleanly) {
  const BehaviorTextSink sink(doctor_->log());
  const std::string path = "/nonexistent-dir-qoed/export.txt";
  EXPECT_FALSE(sink.write_file(path));
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

}  // namespace
}  // namespace qoed::core
