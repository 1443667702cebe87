//===- tests/test_serve.cpp - hotg-serve daemon units ----------------------------===//
//
// The robustness contracts of the serving layer (docs/serving.md):
//
//  * protocol codec — framing round-trips, bad-frame resync, strict
//    request decoding with structured errors;
//  * hardened JsonReader bounds — depth and document-size limits produce
//    ordinary parse errors, never UB;
//  * admission control — a full gate sheds with structured rejections and
//    nothing is silently dropped (responses == frames, always);
//  * deadline jobs degrade (partial results, `degraded` status);
//  * transiently-failed sessions retry with backoff and then succeed;
//  * a quarantined session never perturbs its neighbors: the surviving
//    jobs' outputs are byte-identical to a fault-free server's;
//  * drain answers every admitted job before returning.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/SessionManager.h"
#include "support/FaultInjector.h"
#include "support/JsonReader.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <thread>

using namespace hotg;
using namespace hotg::serve;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

std::string readExample(const char *Name) {
  std::ifstream In(std::string(HOTG_EXAMPLES_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Escapes \p Text as a JSON string body.
std::string jsonEscape(std::string_view Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += {'\\', C};
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

std::string obscureRequest(std::string_view Id, std::string_view Extra = {}) {
  return "{\"id\":\"" + std::string(Id) + "\",\"program\":\"" +
         jsonEscape(readExample("obscure.ml")) +
         "\",\"policy\":\"higher-order\",\"input\":[33,42]" +
         std::string(Extra) + "}";
}

/// One decoded response frame.
struct Decoded {
  std::string Id;
  std::string Status;
  std::string Reason;
  std::string Output;
  int64_t Retries = 0;
  bool Quarantined = false;
};

/// Feeds \p Requests (one frame each) through \p Daemon and decodes every
/// response frame. Order is completion order, so callers index by id.
std::vector<Decoded> runBatch(Server &Daemon,
                              const std::vector<std::string> &Requests,
                              ServerStats *StatsOut = nullptr) {
  std::stringstream In, Out;
  for (const std::string &R : Requests)
    writeFrame(In, R);
  ServerStats Stats = Daemon.serveStream(In, Out);
  if (StatsOut)
    *StatsOut = Stats;

  std::vector<Decoded> Responses;
  std::string Payload, Error;
  for (;;) {
    FrameReadResult Read = readFrame(Out, Payload, Error);
    if (Read == FrameReadResult::Eof)
      break;
    EXPECT_EQ(Read, FrameReadResult::Ok) << Error;
    auto Doc = json::parse(Payload);
    EXPECT_TRUE(Doc) << Doc.error();
    Decoded D;
    D.Id = Doc->getString("id");
    D.Status = Doc->getString("status");
    D.Reason = Doc->getString("reason");
    D.Output = Doc->getString("output");
    D.Retries = Doc->getInt("retries");
    if (const json::Value *Q = Doc->get("quarantined"))
      D.Quarantined = Q->asBool();
    Responses.push_back(std::move(D));
  }
  return Responses;
}

std::map<std::string, Decoded>
byId(const std::vector<Decoded> &Responses) {
  std::map<std::string, Decoded> M;
  for (const Decoded &D : Responses) {
    EXPECT_FALSE(M.count(D.Id)) << "duplicate response for id " << D.Id;
    M[D.Id] = D;
  }
  return M;
}

ServerOptions withWorkers(unsigned Workers) {
  ServerOptions Options;
  Options.Workers = Workers;
  return Options;
}

struct ScopedInjector {
  explicit ScopedInjector(const std::string &Spec) {
    std::string Error;
    Injector = support::FaultInjector::parse(Spec, Error);
    EXPECT_TRUE(Injector) << Error;
    support::setFaultInjector(Injector.get());
  }
  ~ScopedInjector() { support::setFaultInjector(nullptr); }
  std::unique_ptr<support::FaultInjector> Injector;
};

//===----------------------------------------------------------------------===//
// JsonReader hardening (wire input)
//===----------------------------------------------------------------------===//

TEST(JsonLimitsTest, DepthLimitProducesStructuredError) {
  std::string Deep;
  for (int I = 0; I != 10; ++I)
    Deep += "[";
  Deep += "1";
  for (int I = 0; I != 10; ++I)
    Deep += "]";
  json::ParseLimits Limits;
  Limits.MaxDepth = 4;
  auto Doc = json::parse(Deep, Limits);
  ASSERT_FALSE(Doc);
  EXPECT_NE(Doc.error().find("nesting deeper than 4 levels"),
            std::string::npos)
      << Doc.error();
  // The same document parses fine within the limit.
  Limits.MaxDepth = 16;
  EXPECT_TRUE(json::parse(Deep, Limits));
}

TEST(JsonLimitsTest, DepthCountsObjectsAndArraysTogether) {
  json::ParseLimits Limits;
  Limits.MaxDepth = 3;
  EXPECT_TRUE(json::parse(R"({"a":[{"b":1}]})", Limits));
  EXPECT_FALSE(json::parse(R"({"a":[{"b":[1]}]})", Limits));
}

TEST(JsonLimitsTest, DocumentSizeLimitIsCheckedUpFront) {
  json::ParseLimits Limits;
  Limits.MaxDocumentBytes = 8;
  auto Doc = json::parse(R"({"key":"a long document"})", Limits);
  ASSERT_FALSE(Doc);
  EXPECT_NE(Doc.error().find("exceeds limit of"), std::string::npos)
      << Doc.error();
  EXPECT_TRUE(json::parse("1234", Limits));
}

TEST(JsonLimitsTest, DefaultLimitsStayGenerous) {
  std::string Deep;
  for (int I = 0; I != 60; ++I)
    Deep += "[";
  Deep += "1";
  for (int I = 0; I != 60; ++I)
    Deep += "]";
  EXPECT_TRUE(json::parse(Deep));
}

//===----------------------------------------------------------------------===//
// Protocol codec
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, FrameRoundTrip) {
  std::stringstream S;
  writeFrame(S, R"({"id":"a"})");
  writeFrame(S, "");
  std::string Payload, Error;
  EXPECT_EQ(readFrame(S, Payload, Error), FrameReadResult::Ok);
  EXPECT_EQ(Payload, R"({"id":"a"})");
  EXPECT_EQ(readFrame(S, Payload, Error), FrameReadResult::Ok);
  EXPECT_EQ(Payload, "");
  EXPECT_EQ(readFrame(S, Payload, Error), FrameReadResult::Eof);
}

TEST(ServeProtocolTest, BareObjectLinesAndBlankLinesAccepted) {
  std::stringstream S("\n{\"id\":\"x\"}\n\r\n{\"id\":\"y\"}\r\n");
  std::string Payload, Error;
  EXPECT_EQ(readFrame(S, Payload, Error), FrameReadResult::Ok);
  EXPECT_EQ(Payload, "{\"id\":\"x\"}");
  EXPECT_EQ(readFrame(S, Payload, Error), FrameReadResult::Ok);
  EXPECT_EQ(Payload, "{\"id\":\"y\"}");
  EXPECT_EQ(readFrame(S, Payload, Error), FrameReadResult::Eof);
}

TEST(ServeProtocolTest, OversizedFrameIsRejectedAndStreamResyncs) {
  FrameLimits Limits;
  Limits.MaxFrameBytes = 8;
  std::stringstream S("100\nxxx\n{\"a\":1}\n");
  std::string Payload, Error;
  EXPECT_EQ(readFrame(S, Payload, Error, Limits), FrameReadResult::Error);
  EXPECT_NE(Error.find("frame"), std::string::npos) << Error;
}

TEST(ServeProtocolTest, JunkLineErrorsButLaterFramesStillParse) {
  std::stringstream S("not a frame\n{\"id\":\"ok\"}\n");
  std::string Payload, Error;
  EXPECT_EQ(readFrame(S, Payload, Error), FrameReadResult::Error);
  EXPECT_EQ(readFrame(S, Payload, Error), FrameReadResult::Ok);
  EXPECT_EQ(Payload, "{\"id\":\"ok\"}");
}

TEST(ServeProtocolTest, DecodeFillsDefaultsAndRejectsStructuralErrors) {
  json::ParseLimits Limits;
  JobRequest Req;
  std::string Error;
  ASSERT_TRUE(decodeJobRequest(
      R"({"id":"j","program":"fun main() -> int { return 0; }"})", Limits,
      Req, Error))
      << Error;
  EXPECT_EQ(Req.Policy, "higher-order");
  EXPECT_EQ(Req.MaxTests, 64u);
  EXPECT_FALSE(Req.Input.has_value());

  // Missing id.
  EXPECT_FALSE(decodeJobRequest(R"({"program":"x"})", Limits, Req, Error));
  EXPECT_NE(Error.find("id"), std::string::npos);
  // Unknown field (typos must not be silently ignored).
  EXPECT_FALSE(decodeJobRequest(R"({"id":"j","program":"x","polcy":"y"})",
                                Limits, Req, Error));
  EXPECT_NE(Error.find("polcy"), std::string::npos);
  // Wrong type.
  EXPECT_FALSE(decodeJobRequest(R"({"id":"j","program":"x","seed":"y"})",
                                Limits, Req, Error));
  // Out of unsigned range (2^32 + 1 would silently truncate to 1).
  EXPECT_FALSE(decodeJobRequest(
      R"({"id":"j","program":"x","max_tests":4294967297})", Limits, Req,
      Error));
  EXPECT_NE(Error.find("max_tests"), std::string::npos) << Error;
  // Both program and program_path.
  EXPECT_FALSE(decodeJobRequest(
      R"({"id":"j","program":"x","program_path":"y"})", Limits, Req, Error));
  // Neither.
  EXPECT_FALSE(decodeJobRequest(R"({"id":"j"})", Limits, Req, Error));
  // Not an object.
  EXPECT_FALSE(decodeJobRequest(R"([1,2])", Limits, Req, Error));
  // Id survives decode failures for correlation.
  EXPECT_FALSE(decodeJobRequest(R"({"id":"keep","program":"x","jobs":0})",
                                Limits, Req, Error));
  EXPECT_EQ(Req.Id, "keep");
}

/// The daemon has no engine selector (the search picks its execution
/// engine itself), so strict decoding rejects the field like any typo.
TEST(ServeProtocolTest, EngineFieldIsRejectedAsUnknown) {
  json::ParseLimits Limits;
  JobRequest Req;
  std::string Error;
  EXPECT_FALSE(decodeJobRequest(R"({"id":"j","program":"x","engine":"vm"})",
                                Limits, Req, Error));
  EXPECT_EQ(Error, "unknown field 'engine'");
  EXPECT_EQ(Req.Id, "j");
}

/// Likewise there is one solver and no backend selector.
TEST(ServeProtocolTest, BackendFieldIsRejectedAsUnknown) {
  json::ParseLimits Limits;
  JobRequest Req;
  std::string Error;
  EXPECT_FALSE(decodeJobRequest(
      R"({"id":"j","program":"x","backend":"native"})", Limits, Req, Error));
  EXPECT_EQ(Error, "unknown field 'backend'");
  EXPECT_EQ(Req.Id, "j");
}

TEST(ServeProtocolTest, EncodeResponseCarriesTaxonomy) {
  JobResponse Resp;
  Resp.Id = "j1";
  Resp.Status = JobStatus::Degraded;
  Resp.Tests = 7;
  Resp.Output = "line\n";
  std::string Encoded = encodeJobResponse(Resp);
  auto Doc = json::parse(Encoded);
  ASSERT_TRUE(Doc) << Doc.error();
  EXPECT_EQ(Doc->getString("status"), "degraded");
  EXPECT_EQ(Doc->getInt("tests"), 7);
  EXPECT_EQ(Doc->getString("output"), "line\n");

  Resp.Status = JobStatus::Rejected;
  Resp.Reason = "queue full";
  Doc = json::parse(encodeJobResponse(Resp));
  ASSERT_TRUE(Doc) << Doc.error();
  EXPECT_EQ(Doc->getString("status"), "rejected");
  EXPECT_EQ(Doc->getString("reason"), "queue full");
  // Rejected responses carry no search fields.
  EXPECT_EQ(Doc->get("tests"), nullptr);
}

//===----------------------------------------------------------------------===//
// Sessions: validation, status taxonomy, epochs
//===----------------------------------------------------------------------===//

TEST(ServeSessionTest, InvalidJobsAreRejectedNotFatal) {
  Server Daemon(withWorkers(1));
  auto ById = byId(runBatch(
      Daemon, {
                  "{\"id\":\"bad-policy\",\"program\":\"fun main() -> int "
                  "{ return 0; }\",\"policy\":\"bogus\"}",
                  "{\"id\":\"bad-parse\",\"program\":\"fun fun\"}",
                  "{\"id\":\"bad-entry\",\"program\":\"fun main() -> int "
                  "{ return 0; }\",\"entry\":\"nope\"}",
                  "{\"id\":\"bad-path\",\"program_path\":\"../etc\"}",
                  "{\"id\":\"bad-arity\",\"program\":\"fun main(x: int) -> "
                  "int { return x; }\",\"input\":[1,2]}",
                  obscureRequest("survivor"),
              }));
  ASSERT_EQ(ById.size(), 6u);
  for (const char *Id :
       {"bad-policy", "bad-parse", "bad-entry", "bad-path", "bad-arity"}) {
    EXPECT_EQ(ById[Id].Status, "rejected") << Id;
    EXPECT_FALSE(ById[Id].Reason.empty()) << Id;
  }
  // A malformed neighbor never poisons a valid job.
  EXPECT_EQ(ById["survivor"].Status, "bugs");
}

TEST(ServeSessionTest, SelectorFieldsAreStructuredRejections) {
  Server Daemon(withWorkers(1));
  auto ById = byId(runBatch(
      Daemon, {obscureRequest("engine", ",\"engine\":\"interp\""),
               obscureRequest("backend", ",\"backend\":\"native\""),
               obscureRequest("plain")}));
  ASSERT_EQ(ById.size(), 3u);
  EXPECT_EQ(ById["engine"].Status, "rejected");
  EXPECT_EQ(ById["engine"].Reason, "bad request: unknown field 'engine'");
  EXPECT_EQ(ById["backend"].Status, "rejected");
  EXPECT_EQ(ById["backend"].Reason, "bad request: unknown field 'backend'");
  EXPECT_EQ(ById["plain"].Status, "bugs");
}

TEST(ServeSessionTest, StatusesMapTheExitCodeContract) {
  Server Daemon(withWorkers(1));
  auto ById = byId(runBatch(
      Daemon,
      {
          obscureRequest("finds-bugs"),
          "{\"id\":\"clean\",\"program\":\"fun main(x: int) -> int { if "
          "(x > 3) { return 1; } return 0; }\",\"policy\":\"unsound\"}",
      }));
  EXPECT_EQ(ById["finds-bugs"].Status, "bugs");
  EXPECT_NE(ById["finds-bugs"].Output.find("BUG [error]"),
            std::string::npos);
  EXPECT_EQ(ById["clean"].Status, "ok");
  EXPECT_NE(ById["clean"].Output.find("no bugs found"), std::string::npos);
}

TEST(ServeSessionTest, DeadlineJobsDegradeWithPartialResults) {
  Server Daemon(withWorkers(1));
  std::string Req = "{\"id\":\"slow\",\"program\":\"" +
                    jsonEscape(readExample("lexer.ml")) +
                    "\",\"entry\":\"lex_main\",\"explore_paths\":true,"
                    "\"max_tests\":2000,\"deadline_ms\":1}";
  auto ById = byId(runBatch(Daemon, {Req}));
  ASSERT_EQ(ById.size(), 1u);
  EXPECT_EQ(ById["slow"].Status, "degraded");
  EXPECT_NE(ById["slow"].Output.find("search stopped:"), std::string::npos)
      << ById["slow"].Output;
}

TEST(ServeSessionTest, EpochSharesAcrossJobsValuesButNotConfigs) {
  SharedFabric Fabric;
  SessionManager Sessions(Fabric, {});
  JobRequest A;
  A.Id = "a";
  A.Program = "fun main() -> int { return 0; }";
  const std::string Src = A.Program;
  JobRequest B = A;
  B.Id = "b";
  B.Tenant = "other";
  B.Jobs = 4; // Jobs and identity fields never split an epoch.
  EXPECT_EQ(Sessions.epochFor(A, Src, "", 0), Sessions.epochFor(B, Src, "", 0));
  B.Seed = 7; // Anything that changes the query stream does.
  EXPECT_NE(Sessions.epochFor(A, Src, "", 0), Sessions.epochFor(B, Src, "", 0));
  EXPECT_NE(Sessions.epochFor(A, Src, "", 0),
            Sessions.epochFor(A, Src, "samples", 0));
  // The epoch digests the program text the session actually runs, never
  // the path it was named by: an edited file under --program-root splits
  // the epoch, and a path spelling alone never does.
  EXPECT_NE(Sessions.epochFor(A, Src, "", 0),
            Sessions.epochFor(A, "fun main() -> int { return 1; }", "", 0));
  JobRequest ByPath = A;
  ByPath.Program.clear();
  ByPath.ProgramPath = "some/dir/main.ml";
  EXPECT_EQ(Sessions.epochFor(A, Src, "", 0),
            Sessions.epochFor(ByPath, Src, "", 0));
  // Deadline-armed jobs never share an epoch, not even with themselves.
  EXPECT_NE(Sessions.epochFor(A, Src, "", 5), Sessions.epochFor(A, Src, "", 5));
}

TEST(ServeSessionTest, CrossSessionCacheServesRepeatJobs) {
  Server Daemon(withWorkers(1));
  auto First = byId(runBatch(Daemon, {obscureRequest("r1")}));
  uint64_t MissesAfterFirst = Daemon.fabric().cache().misses();
  EXPECT_GT(MissesAfterFirst, 0u); // Cold cache: the first session misses.
  auto Second = byId(runBatch(Daemon, {obscureRequest("r2")}));
  EXPECT_GT(Daemon.fabric().cache().hits(), 0u);
  // Sharing never changes results: identical report bytes.
  EXPECT_EQ(First["r1"].Output, Second["r2"].Output);
  EXPECT_EQ(First["r1"].Status, "bugs");
  EXPECT_EQ(Second["r2"].Status, "bugs");
}

TEST(ServeSessionTest, ShareSamplesPublishesOneTablePerFamily) {
  Server Daemon(withWorkers(1));
  std::string Req = obscureRequest("s1", ",\"share_samples\":true");
  auto R1 = byId(runBatch(Daemon, {Req}));
  EXPECT_EQ(R1["s1"].Status, "bugs");
  EXPECT_EQ(Daemon.fabric().sampleTables(), 1u);
  // A second job of the same family warm-starts and re-publishes into the
  // same slot — still one table.
  std::string Req2 = obscureRequest("s2", ",\"share_samples\":true");
  auto R2 = byId(runBatch(Daemon, {Req2}));
  EXPECT_EQ(R2["s2"].Status, "bugs");
  EXPECT_EQ(Daemon.fabric().sampleTables(), 1u);
}

//===----------------------------------------------------------------------===//
// Admission control / backpressure
//===----------------------------------------------------------------------===//

TEST(ServeAdmissionTest, GateBoundsAndReleases) {
  AdmissionGate Gate(2);
  EXPECT_TRUE(Gate.tryAcquire());
  EXPECT_TRUE(Gate.tryAcquire());
  EXPECT_FALSE(Gate.tryAcquire());
  Gate.release();
  EXPECT_TRUE(Gate.tryAcquire());
  EXPECT_EQ(Gate.capacity(), 2u);
}

TEST(ServeAdmissionTest, RetryBackoffIsBoundedAndExponential) {
  RetryPolicy Retry;
  Retry.BaseBackoffMs = 10;
  Retry.MaxBackoffMs = 35;
  EXPECT_EQ(Retry.backoffMs(0), 10u);
  EXPECT_EQ(Retry.backoffMs(1), 20u);
  EXPECT_EQ(Retry.backoffMs(2), 35u); // Capped.
  EXPECT_EQ(Retry.backoffMs(9), 35u);
}

TEST(ServeAdmissionTest, OverloadShedsWithStructuredRejections) {
  ServerOptions Options;
  Options.Workers = 1;
  Options.QueueCapacity = 1;
  Server Daemon(Options);
  std::vector<std::string> Batch;
  for (int I = 0; I != 6; ++I)
    Batch.push_back(obscureRequest("job" + std::to_string(I)));
  ServerStats Stats;
  auto Responses = runBatch(Daemon, Batch, &Stats);

  // The zero-silent-drops invariant: every frame got exactly one answer.
  EXPECT_EQ(Stats.FramesRead, 6u);
  EXPECT_EQ(Stats.Responses, 6u);
  EXPECT_EQ(Stats.Admitted + Stats.Shed, 6u);
  EXPECT_GE(Stats.Shed, 1u) << "capacity-1 gate never shed under 6x load";

  unsigned Shed = 0, Succeeded = 0;
  for (const Decoded &D : Responses) {
    if (D.Status == "rejected") {
      EXPECT_NE(D.Reason.find("queue full"), std::string::npos) << D.Reason;
      ++Shed;
    } else {
      EXPECT_EQ(D.Status, "bugs");
      ++Succeeded;
    }
  }
  EXPECT_EQ(Shed, Stats.Shed);
  EXPECT_EQ(Succeeded, Stats.Admitted);
}

//===----------------------------------------------------------------------===//
// Fault containment: retry, quarantine, decode faults
//===----------------------------------------------------------------------===//

TEST(ServeFaultTest, TransientSpawnFaultRetriesThenSucceeds) {
  // Seed 26 at p=0.5 fires the session-spawn fault for frame 0's first
  // attempt and spares its retry (the decision is a pure function of
  // (seed, site, frame, attempt), see test_support_faults), so the one job
  // fails once and then succeeds on its first retry.
  {
    std::string Error;
    auto Probe =
        support::FaultInjector::parse("serve.session-spawn:0.5:26", Error);
    ASSERT_TRUE(Probe) << Error;
    {
      support::FaultScope FirstAttempt(/*Frame=*/0, /*Attempt=*/0);
      ASSERT_TRUE(Probe->shouldFail(support::FaultSite::SessionSpawn));
    }
    support::FaultScope Retry(/*Frame=*/0, /*Attempt=*/1);
    ASSERT_FALSE(Probe->shouldFail(support::FaultSite::SessionSpawn));
  }
  ScopedInjector Injector("serve.session-spawn:0.5:26");
  ServerOptions Options;
  Options.Workers = 1;
  Options.Session.Retry.BaseBackoffMs = 1;
  Server Daemon(Options);
  auto ById = byId(runBatch(Daemon, {obscureRequest("retry")}));
  ASSERT_EQ(ById.size(), 1u);
  EXPECT_EQ(ById["retry"].Status, "bugs");
  EXPECT_GE(ById["retry"].Retries, 1);
  EXPECT_FALSE(ById["retry"].Quarantined);
}

TEST(ServeFaultTest, ExhaustedRetriesQuarantineWithStructuredError) {
  ScopedInjector Injector("serve.session-spawn:1.0:1");
  ServerOptions Options;
  Options.Workers = 1;
  Options.Session.Retry.MaxRetries = 2;
  Options.Session.Retry.BaseBackoffMs = 1;
  Server Daemon(Options);
  auto ById = byId(runBatch(Daemon, {obscureRequest("doomed")}));
  ASSERT_EQ(ById.size(), 1u);
  EXPECT_EQ(ById["doomed"].Status, "error");
  EXPECT_TRUE(ById["doomed"].Quarantined);
  EXPECT_EQ(ById["doomed"].Retries, 2);
  EXPECT_NE(ById["doomed"].Reason.find("injected"), std::string::npos)
      << ById["doomed"].Reason;
}

TEST(ServeFaultTest, QuarantinedSessionLeavesNeighborsByteIdentical) {
  // Fault-free reference pass.
  std::vector<std::string> Batch = {obscureRequest("q1"),
                                    obscureRequest("q2"),
                                    obscureRequest("q3")};
  std::map<std::string, Decoded> Clean;
  {
    Server Daemon(withWorkers(1));
    Clean = byId(runBatch(Daemon, Batch));
  }
  // Faulted pass: p=1 on the first spawn probe only is impossible with a
  // stationary probability, so instead quarantine deterministically via
  // retries=0 and a seed whose probe pattern hits at least one job.
  ScopedInjector Injector("serve.session-spawn:0.5:3");
  ServerOptions Options;
  Options.Workers = 1;
  Options.Session.Retry.MaxRetries = 0;
  Server Daemon(Options);
  auto Faulted = byId(runBatch(Daemon, Batch));
  ASSERT_EQ(Faulted.size(), 3u);
  unsigned Quarantined = 0;
  for (const auto &[Id, D] : Faulted) {
    if (D.Quarantined) {
      EXPECT_EQ(D.Status, "error");
      ++Quarantined;
    } else {
      // The surviving sessions' reports are byte-identical to the clean
      // server's — a faulted neighbor perturbed nothing.
      EXPECT_EQ(D.Status, Clean[Id].Status) << Id;
      EXPECT_EQ(D.Output, Clean[Id].Output) << Id;
    }
  }
  EXPECT_GE(Quarantined, 1u) << "seed no longer fires; pick a new one";
  EXPECT_LT(Quarantined, 3u) << "need at least one survivor";
}

TEST(ServeFaultTest, DecodeFaultRejectsFrameAndKeepsServing) {
  ScopedInjector Injector("serve.job-decode:0.5:3");
  Server Daemon(withWorkers(1));
  std::vector<std::string> Batch = {obscureRequest("d1"),
                                    obscureRequest("d2"),
                                    obscureRequest("d3")};
  ServerStats Stats;
  auto Responses = runBatch(Daemon, Batch, &Stats);
  EXPECT_EQ(Stats.Responses, 3u);
  unsigned Rejected = 0;
  for (const Decoded &D : Responses)
    if (D.Status == "rejected") {
      EXPECT_NE(D.Reason.find("injected"), std::string::npos) << D.Reason;
      ++Rejected;
    } else {
      EXPECT_EQ(D.Status, "bugs");
    }
  EXPECT_GE(Rejected, 1u);
  EXPECT_LT(Rejected, 3u);
}

//===----------------------------------------------------------------------===//
// Drain
//===----------------------------------------------------------------------===//

TEST(ServeDrainTest, DrainAnswersEverythingAdmitted) {
  ServerOptions Options;
  Options.Workers = 2;
  Server Daemon(Options);
  std::stringstream In, Out;
  for (int I = 0; I != 4; ++I)
    writeFrame(In, obscureRequest("drain" + std::to_string(I)));

  // Request the drain concurrently with serving; wherever the frame loop
  // is when the flag lands, the invariant is the same: every frame read
  // got answered before serveStream returned.
  std::thread Stopper([&Daemon] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Daemon.requestDrain();
  });
  ServerStats Stats = Daemon.serveStream(In, Out);
  Stopper.join();
  EXPECT_EQ(Stats.Responses, Stats.FramesRead);
  EXPECT_EQ(Stats.Admitted + Stats.Shed + Stats.RejectedMalformed,
            Stats.FramesRead);

  std::string Payload, Error;
  unsigned Frames = 0;
  while (readFrame(Out, Payload, Error) == FrameReadResult::Ok)
    ++Frames;
  EXPECT_EQ(Frames, Stats.Responses);
}

TEST(ServeDrainTest, DrainBeforeServingReadsNothing) {
  Server Daemon(withWorkers(1));
  Daemon.requestDrain();
  std::stringstream In, Out;
  writeFrame(In, obscureRequest("never"));
  ServerStats Stats = Daemon.serveStream(In, Out);
  EXPECT_TRUE(Stats.Drained);
  EXPECT_EQ(Stats.FramesRead, 0u);
  EXPECT_EQ(Stats.Responses, 0u);
}

} // namespace
