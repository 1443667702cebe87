//===- bench/bench_serve.cpp - E12: the serving layer under load ------------------===//
//
// Measures the hotg-serve daemon loop in process (no sockets, no child
// processes — hermetic): batch throughput over the shared session pool,
// load shedding under 2x overload against a capacity-bounded admission
// gate, cross-session query-cache reuse for repeated job configurations,
// and the quarantine-identity contract under an injected session-fault
// storm. The storm leg *asserts* the acceptance bar of docs/serving.md:
// every non-quarantined response is byte-identical to the fault-free
// server's response for the same job, and no frame goes unanswered.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "app/Examples.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Support.h"
#include "support/Telemetry.h"

#include <map>
#include <sstream>

using namespace hotg;
using namespace hotg::bench;
using namespace hotg::serve;

namespace {

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

/// One request over an embedded example program (hermetic: the sources are
/// compiled into the binary via app::allExamples).
std::string exampleRequest(const std::string &Id, const std::string &Example,
                           uint64_t Seed) {
  app::ExampleProgram App = app::exampleByName(Example);
  std::string Req = "{\"id\":\"" + Id + "\",\"program\":\"" +
                    jsonEscape(App.Source) + "\",\"policy\":\"higher-order\"" +
                    formatString(",\"seed\":%llu", (unsigned long long)Seed);
  if (App.InitialInput) {
    Req += ",\"input\":[";
    for (size_t I = 0; I != App.InitialInput->Cells.size(); ++I)
      Req += formatString(I ? ",%lld" : "%lld",
                          (long long)App.InitialInput->Cells[I]);
    Req += "]";
  }
  return Req + "}";
}

struct Decoded {
  std::string Id;
  std::string Status;
  std::string Output;
  bool Quarantined = false;
};

std::map<std::string, Decoded> runBatch(Server &Daemon,
                                        const std::vector<std::string> &Batch,
                                        ServerStats &Stats) {
  std::stringstream In, Out;
  for (const std::string &Req : Batch)
    writeFrame(In, Req);
  Stats = Daemon.serveStream(In, Out);

  std::map<std::string, Decoded> ById;
  std::string Payload, Error;
  for (;;) {
    FrameReadResult Read = readFrame(Out, Payload, Error);
    if (Read == FrameReadResult::Eof)
      break;
    if (Read != FrameReadResult::Ok)
      reportFatalError("bench_serve: bad response frame: " + Error);
    auto Doc = json::parse(Payload);
    if (!Doc)
      reportFatalError("bench_serve: bad response json: " + Doc.error());
    Decoded D;
    D.Id = Doc->getString("id");
    D.Status = Doc->getString("status");
    D.Output = Doc->getString("output");
    if (const json::Value *Q = Doc->get("quarantined"))
      D.Quarantined = Q->asBool();
    ById[D.Id] = std::move(D);
  }
  if (ById.size() != Stats.Responses)
    reportFatalError("bench_serve: duplicate or missing response ids");
  return ById;
}

std::vector<std::string> mixedBatch(unsigned Jobs) {
  const char *Examples[] = {"obscure", "bar", "eq_pair", "pub"};
  std::vector<std::string> Batch;
  for (unsigned I = 0; I != Jobs; ++I)
    Batch.push_back(exampleRequest(formatString("job%u", I),
                                   Examples[I % 4], 42 + I / 4));
  return Batch;
}

} // namespace

int main() {
  std::printf("hotg bench_serve: the multi-tenant serving layer "
              "(admission control, shared fabric, fault isolation)\n");
  telemetry::Registry &Reg = telemetry::Registry::global();

  banner("E12a", "batch throughput over the session pool");
  {
    Table T({"workers", "jobs", "wall ms", "jobs/s"});
    for (unsigned Workers : {1u, 2u}) {
      ServerOptions Options;
      Options.Workers = Workers;
      Options.QueueCapacity = 64;
      Server Daemon(Options);
      std::vector<std::string> Batch = mixedBatch(24);
      uint64_t Start = telemetry::monotonicNanos();
      ServerStats Stats;
      auto ById = runBatch(Daemon, Batch, Stats);
      double WallMs = double(telemetry::monotonicNanos() - Start) / 1e6;
      if (Stats.Admitted != 24 || Stats.Responses != 24)
        reportFatalError("bench_serve: throughput leg lost jobs");
      for (const auto &[Id, D] : ById)
        if (D.Status != "ok" && D.Status != "bugs")
          reportFatalError("bench_serve: job " + Id + " ended " + D.Status);
      T.addRow({formatString("%u", Workers), "24",
                formatString("%.1f", WallMs),
                formatString("%.1f", 24000.0 / WallMs)});
    }
    T.print();
  }

  banner("E12b", "load shedding under 2x overload (capacity 4, workers 1)");
  {
    ServerOptions Options;
    Options.Workers = 1;
    Options.QueueCapacity = 4;
    Server Daemon(Options);
    // 2x the gate capacity in flight at once: the reader ingests all
    // eight frames while the single worker still runs job 0.
    std::vector<std::string> Batch = mixedBatch(8);
    ServerStats Stats;
    runBatch(Daemon, Batch, Stats);
    if (Stats.Responses != 8 || Stats.Admitted + Stats.Shed != 8)
      reportFatalError("bench_serve: overload leg dropped a frame");
    if (Stats.Shed == 0)
      reportFatalError("bench_serve: 2x overload never shed");
    std::printf("overload: %llu/8 admitted, %llu shed (%.0f%% shed rate), "
                "every frame answered\n",
                (unsigned long long)Stats.Admitted,
                (unsigned long long)Stats.Shed, 100.0 * Stats.Shed / 8.0);
    Reg.counter("bench_serve.overload_shed").add(Stats.Shed);
  }

  banner("E12c", "cross-session query-cache reuse (6 identical configs, "
                 "every generation kept)");
  {
    ServerOptions Options;
    Options.Workers = 1;
    Server Daemon(Options);
    std::vector<std::string> Batch;
    for (unsigned I = 0; I != 6; ++I)
      Batch.push_back(exampleRequest(formatString("rep%u", I), "bar", 42));
    ServerStats Stats;
    auto ById = runBatch(Daemon, Batch, Stats);
    std::string FirstOutput = ById["rep0"].Output;
    for (const auto &[Id, D] : ById)
      if (D.Output != FirstOutput)
        reportFatalError("bench_serve: shared cache changed a result");
    uint64_t Hits = Daemon.fabric().cache().hits();
    uint64_t Misses = Daemon.fabric().cache().misses();
    if (Hits == 0)
      reportFatalError("bench_serve: repeat sessions never hit the cache");
    std::printf("cache: %llu hits / %llu misses (%.0f%% hit rate) across 6 "
                "same-epoch sessions; outputs identical\n",
                (unsigned long long)Hits, (unsigned long long)Misses,
                100.0 * double(Hits) / double(Hits + Misses));
    Reg.counter("bench_serve.cache_hits").add(Hits);
    Reg.counter("bench_serve.cache_misses").add(Misses);
  }

  banner("E12d", "quarantine identity under a session-fault storm");
  {
    std::vector<std::string> Batch = mixedBatch(12);
    ServerStats CleanStats;
    std::map<std::string, Decoded> Clean;
    {
      ServerOptions Options;
      Options.Workers = 2;
      Options.QueueCapacity = 16;
      Server Daemon(Options);
      Clean = runBatch(Daemon, Batch, CleanStats);
    }
    std::string Error;
    auto Injector =
        support::FaultInjector::parse("serve.session-spawn:0.4:9", Error);
    if (!Injector)
      reportFatalError("bench_serve: bad fault spec: " + Error);
    support::setFaultInjector(Injector.get());
    ServerOptions Options;
    Options.Workers = 2;
    Options.QueueCapacity = 16;
    Options.Session.Retry.MaxRetries = 1;
    Options.Session.Retry.BaseBackoffMs = 1;
    Server Daemon(Options);
    ServerStats Stats;
    auto Faulted = runBatch(Daemon, Batch, Stats);
    support::setFaultInjector(nullptr);

    if (Stats.Responses != 12)
      reportFatalError("bench_serve: storm leg dropped a frame");
    unsigned Quarantined = 0, Identical = 0;
    for (const auto &[Id, D] : Faulted) {
      if (D.Quarantined) {
        ++Quarantined;
        continue;
      }
      // The acceptance bar: a faulted neighbor must not perturb this
      // session — byte-identical to the fault-free server.
      if (D.Output != Clean[Id].Output || D.Status != Clean[Id].Status)
        reportFatalError("bench_serve: non-quarantined job " + Id +
                         " diverged from the clean run");
      ++Identical;
    }
    std::printf("storm: %u quarantined, %u survivors byte-identical to the "
                "fault-free run, 12/12 answered\n%s",
                Quarantined, Identical, Injector->summary().c_str());
    Reg.counter("bench_serve.storm_quarantined").add(Quarantined);
    Reg.counter("bench_serve.storm_identical").add(Identical);
  }

  std::printf("\nExpected shape: shedding engages at 2x overload (honest "
              "rejections, zero drops); repeat sessions hit the shared "
              "cache at every sample generation the first one asked at "
              "(hit rate >= 60%%); survivors of a fault storm are "
              "byte-identical to a clean run.\n");
  writeBenchStats("serve");
  return 0;
}
