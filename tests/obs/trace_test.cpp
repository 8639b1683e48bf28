#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.h"

namespace sorn {
namespace {

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter w;
  w.begin_object()
      .field("a", std::int64_t{1})
      .key("b")
      .begin_array()
      .value(std::int64_t{2})
      .value("x")
      .end_array()
      .field("c", true)
      .end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[2,"x"],"c":true})");
}

TEST(JsonWriterTest, EscapesStrings) {
  std::string out;
  json_escape(out, "a\"b\\c\nd");
  EXPECT_EQ(out, R"("a\"b\\c\nd")");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(json_double(0.5), "0.5");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(std::nan("")), "null");
}

TEST(TracerTest, DisabledTracerEmitsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.flow_inject(0, 1, 2, 3, 4096, 0);  // must be a no-op, not a crash
  t.replan(0, "threshold", 0.5, 0.1, 0.7, 8, 2.0, 1);
}

TEST(TracerTest, FlowEventSchema) {
  MemoryTraceSink sink;
  Tracer t(&sink);
  t.flow_inject(5, 42, 1, 9, 4096, 2);
  t.flow_complete(17, 42, 1200000, 2);
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_EQ(sink.lines()[0],
            R"({"ev":"flow_inject","slot":5,"flow":42,"src":1,"dst":9,)"
            R"("bytes":4096,"class":2})");
  EXPECT_EQ(sink.lines()[1],
            R"({"ev":"flow_complete","slot":17,"flow":42,)"
            R"("fct_ps":1200000,"class":2})");
}

TEST(TracerTest, ControlPlaneEventSchema) {
  MemoryTraceSink sink;
  Tracer t(&sink);
  t.replan(100, "locality_degradation", 0.125, 0.25, 0.5, 8, 2.0, 3);
  t.reconfig_staged(100, 150, 8, 2.0, false);
  t.reconfig_applied(150, 2);
  ASSERT_EQ(sink.lines().size(), 3u);
  EXPECT_EQ(sink.lines()[0],
            R"({"ev":"replan","slot":100,"reason":"locality_degradation",)"
            R"("macro_change":0.125,"locality_estimate":0.25,)"
            R"("planned_locality":0.5,"cliques":8,"q":2,"replans":3})");
  EXPECT_EQ(sink.lines()[1],
            R"({"ev":"reconfig_staged","slot":100,"due":150,"cliques":8,)"
            R"("q":2,"weighted":false})");
  EXPECT_EQ(sink.lines()[2],
            R"({"ev":"reconfig_applied","slot":150,"swaps_applied":2})");
}

TEST(TracerTest, FailureEventSchema) {
  MemoryTraceSink sink;
  Tracer t(&sink);
  t.node_fail(7, 3);
  t.circuit_fail(8, 1, 2);
  t.node_heal(9, 3);
  t.circuit_heal(10, 1, 2);
  ASSERT_EQ(sink.lines().size(), 4u);
  EXPECT_EQ(sink.lines()[0], R"({"ev":"node_fail","slot":7,"node":3})");
  EXPECT_EQ(sink.lines()[1],
            R"({"ev":"circuit_fail","slot":8,"src":1,"dst":2})");
  EXPECT_EQ(sink.lines()[2], R"({"ev":"node_heal","slot":9,"node":3})");
  EXPECT_EQ(sink.lines()[3],
            R"({"ev":"circuit_heal","slot":10,"src":1,"dst":2})");
}

TEST(FileTraceSinkTest, WritesJsonlFraming) {
  const std::string path =
      testing::TempDir() + "/sorn_trace_test.jsonl";
  {
    FileTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    Tracer t(&sink);
    t.reconfigure(3);
    t.cell_drop(4, 0, 1, 99);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(),
            "{\"ev\":\"reconfigure\",\"slot\":3}\n"
            "{\"ev\":\"cell_drop\",\"slot\":4,\"at\":0,\"next_hop\":1,"
            "\"flow\":99}\n");
  std::remove(path.c_str());
}

TEST(FileTraceSinkTest, CloseReportsAFailedWrite) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  FileTraceSink sink("/dev/full");
  ASSERT_TRUE(sink.ok());
  Tracer(&sink).reconfigure(3);
  EXPECT_FALSE(sink.close());

  const std::string path = testing::TempDir() + "/sorn_trace_close.jsonl";
  FileTraceSink good(path);
  Tracer(&good).reconfigure(3);
  EXPECT_TRUE(good.close());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sorn
