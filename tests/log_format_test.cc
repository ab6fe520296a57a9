// Tests for the text audit-log transport format.

#include "storage/log_format.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "simulator/scenario.h"

namespace aiql {
namespace {

EventRecord SampleFileEvent() {
  EventRecord record;
  record.agent_id = 3;
  record.op = OpType::kWrite;
  record.start_ts = 1525910400000000;
  record.end_ts = 1525910401000000;
  record.amount = 4096;
  record.subject = ProcessRef{3, 42, "C:\\Windows\\cmd.exe", "alice"};
  record.object = FileRef{3, "C:\\Users\\alice\\notes.txt"};
  return record;
}

TEST(LogFormatTest, RoundTripsAllObjectKinds) {
  EventRecord file_event = SampleFileEvent();

  EventRecord proc_event = file_event;
  proc_event.op = OpType::kStart;
  proc_event.object = ProcessRef{4, 99, "/bin/sh", "root"};

  EventRecord net_event = file_event;
  net_event.op = OpType::kConnect;
  net_event.object = NetworkRef{3, "10.0.0.1", "8.8.8.8", 1234, 443, "udp"};

  for (const EventRecord& original : {file_event, proc_event, net_event}) {
    auto parsed = ParseLogLine(FormatLogLine(original));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->start_ts, original.start_ts);
    EXPECT_EQ(parsed->end_ts, original.end_ts);
    EXPECT_EQ(parsed->agent_id, original.agent_id);
    EXPECT_EQ(parsed->op, original.op);
    EXPECT_EQ(parsed->amount, original.amount);
    EXPECT_EQ(parsed->subject.exe_name, original.subject.exe_name);
    EXPECT_EQ(ObjectRefType(parsed->object), ObjectRefType(original.object));
  }
}

TEST(LogFormatTest, EscapesHostileStrings) {
  EventRecord record = SampleFileEvent();
  record.subject.exe_name = "evil\tname\\with\nweird chars";
  record.object = FileRef{3, "/tmp/tab\there"};
  std::string line = FormatLogLine(record);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = ParseLogLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->subject.exe_name, record.subject.exe_name);
  EXPECT_EQ(std::get<FileRef>(parsed->object).path, "/tmp/tab\there");
}

TEST(LogFormatTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseLogLine("").ok());
  EXPECT_FALSE(ParseLogLine("not\ta\tlog\tline").ok());
  EXPECT_FALSE(
      ParseLogLine("x\t1\t1\twrite\t0\t1\ta\tb\tfile\t1\t/f").ok());
  EXPECT_FALSE(  // unknown object kind
      ParseLogLine("1\t2\t1\twrite\t0\t1\ta\tb\tpipe\t1\t/f").ok());
  EXPECT_FALSE(  // unknown op
      ParseLogLine("1\t2\t1\tfrobnicate\t0\t1\ta\tb\tfile\t1\t/f").ok());

  // Values outside their field's type are rejected, naming the field, not
  // narrowed into another host, pid, port or amount.
  struct OutOfRange {
    const char* line;
    const char* field;
  };
  const OutOfRange cases[] = {
      {"1\t2\t4294967297\twrite\t0\t1\ta\tb\tfile\t1\t/f", "agent"},
      {"1\t2\t-1\twrite\t0\t1\ta\tb\tfile\t1\t/f", "agent"},
      {"1\t2\t1\twrite\t-5\t1\ta\tb\tfile\t1\t/f", "amount"},
      {"1\t2\t1\twrite\t0\t4294967296\ta\tb\tfile\t1\t/f", "subj_pid"},
      {"1\t2\t1\twrite\t0\t1\ta\tb\tfile\t4294967297\t/f", "obj agent"},
      {"1\t2\t1\tstart\t0\t1\ta\tb\tproc\t1\t-2\tc\td", "obj pid"},
      {"1\t2\t1\tconnect\t0\t1\ta\tb\tnet\t1\t10.0.0.1\t65536\t"
       "10.0.0.2\t80\ttcp",
       "src_port"},
      {"1\t2\t1\tconnect\t0\t1\ta\tb\tnet\t1\t10.0.0.1\t5\t"
       "10.0.0.2\t-80\ttcp",
       "dst_port"},
  };
  for (const OutOfRange& c : cases) {
    auto parsed = ParseLogLine(c.line);
    ASSERT_FALSE(parsed.ok()) << c.line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption) << c.line;
    EXPECT_EQ(parsed.status().message().rfind(c.field, 0), 0u)
        << parsed.status().ToString();
  }
  // The top of each range still parses.
  auto top = ParseLogLine(
      "1\t2\t4294967295\tconnect\t18446744073709551615\t4294967295\ta\tb\t"
      "net\t4294967295\t10.0.0.1\t65535\t10.0.0.2\t65535\ttcp");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->agent_id, UINT32_MAX);
  EXPECT_EQ(top->amount, UINT64_MAX);
  EXPECT_EQ(top->subject.pid, UINT32_MAX);
  EXPECT_EQ(std::get<NetworkRef>(top->object).dst_port, 65535);
}

TEST(LogFormatTest, FileRoundTripOfAWholeScenario) {
  ScenarioOptions options;
  options.num_clients = 2;
  options.duration = kHour;
  options.events_per_host_per_hour = 200;
  DemoScenarioData data = GenerateDemoScenario(options);

  std::string path = "/tmp/aiql_log_format_test.log";
  ASSERT_TRUE(WriteAuditLog(data.records, path).ok());
  auto loaded = ReadAuditLog(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), data.records.size());

  // Databases built from originals and from the replayed log are identical.
  auto db_a = IngestRecords(data.records, StorageOptions{});
  auto db_b = IngestRecords(*loaded, StorageOptions{});
  ASSERT_TRUE(db_a.ok());
  ASSERT_TRUE(db_b.ok());
  EXPECT_EQ(db_a->stats().total_events, db_b->stats().total_events);
  EXPECT_EQ(db_a->entities().processes().size(),
            db_b->entities().processes().size());
  EXPECT_EQ(db_a->entities().files().size(),
            db_b->entities().files().size());
  EXPECT_EQ(db_a->entities().networks().size(),
            db_b->entities().networks().size());
}

TEST(LogFormatTest, ReaderReportsLineNumbers) {
  std::string path = "/tmp/aiql_log_format_badline.log";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# header\n", f);
  std::fputs(FormatLogLine(SampleFileEvent()).c_str(), f);
  std::fputs("\ngarbage line\n", f);
  std::fclose(f);
  auto loaded = ReadAuditLog(path);
  std::remove(path.c_str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
}

TEST(LogFormatTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadAuditLog("/tmp/definitely_missing.log").status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace aiql
