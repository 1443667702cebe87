//===- serve/Server.cpp - The hotg-serve daemon loop -----------------------===//

#include "serve/Server.h"

#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cerrno>
#include <chrono>
#include <future>
#include <istream>
#include <ostream>
#include <vector>

#include <poll.h>
#include <streambuf>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace hotg;
using namespace hotg::serve;

Server::Server(ServerOptions Opts)
    : Options(std::move(Opts)), Sessions(Fabric, Options.Session),
      Gate(Options.QueueCapacity),
      Pool(Options.Workers ? Options.Workers : 1),
      Cancel(support::CancelToken::create()) {}

void Server::writeResponse(std::ostream &Out, const JobResponse &Response,
                           ServerStats &Stats) {
  std::string Encoded = encodeJobResponse(Response);
  {
    std::lock_guard<std::mutex> Lock(WriteMutex);
    writeFrame(Out, Encoded);
    Out.flush();
    ++Stats.Responses;
  }
  telemetry::Registry::global().counter("serve.responses").add();
}

ServerStats Server::serveStream(std::istream &In, std::ostream &Out) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  ServerStats Stats;
  std::vector<std::future<void>> Pending;
  auto PruneReady = [&Pending] {
    std::erase_if(Pending, [](std::future<void> &F) {
      return F.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
  };

  std::string Payload, Error;
  while (!drainRequested()) {
    FrameReadResult Read = readFrame(In, Payload, Error, Options.Frame);
    if (Read == FrameReadResult::Eof)
      break;
    // Arrival ordinal of this frame: the fault-injection identity of its
    // decode and of its session's attempts (support::FaultScope).
    const uint64_t Frame = Stats.FramesRead++;

    auto RejectInline = [&](std::string Id, std::string Reason) {
      JobResponse Resp;
      Resp.Id = std::move(Id);
      Resp.Status = JobStatus::Rejected;
      Resp.Reason = std::move(Reason);
      writeResponse(Out, Resp, Stats);
    };

    if (Read == FrameReadResult::Error) {
      ++Stats.RejectedMalformed;
      Reg.counter("serve.jobs_rejected_invalid").add();
      RejectInline("", "bad frame: " + Error);
      continue;
    }

    JobRequest Request;
    bool Decoded = false;
    std::string DecodeError;
    try {
      // Fault site: a frame that dies in decoding. The decoder is pure,
      // so the failure is answered (structured rejection) and the stream
      // keeps serving — no quarantine, nothing was admitted.
      {
        support::FaultScope Scope(Frame, 0);
        support::maybeInjectFault(support::FaultSite::JobDecode);
      }
      Decoded = decodeJobRequest(Payload, Options.Decode, Request,
                                 DecodeError);
    } catch (const support::FaultInjected &E) {
      DecodeError = E.what();
    }
    if (!Decoded) {
      ++Stats.RejectedMalformed;
      Reg.counter("serve.jobs_rejected_invalid").add();
      RejectInline(Request.Id, "bad request: " + DecodeError);
      continue;
    }

    if (!Gate.tryAcquire()) {
      // Load shedding: the bounded gate is full. The tenant gets an
      // immediate, honest rejection instead of unbounded queueing.
      ++Stats.Shed;
      Reg.counter("serve.jobs_shed").add();
      RejectInline(Request.Id,
                   formatString("queue full (capacity %u)", Gate.capacity()));
      continue;
    }

    ++Stats.Admitted;
    Reg.counter("serve.jobs_admitted").add();
    static telemetry::Histogram &QueueDepth =
        Reg.valueHistogram("serve.queue_depth");
    QueueDepth.note(Gate.inFlight());

    Pending.push_back(
        Pool.submit([this, &Out, &Stats, Frame, Request = std::move(Request)](
                        unsigned /*Worker*/) {
          JobResponse Resp = Sessions.runJob(Request, Frame, Cancel);
          Gate.release();
          writeResponse(Out, Resp, Stats);
        }));
    if (Pending.size() >= 2u * Pool.size())
      PruneReady();
  }

  // Drain: every admitted job answers before we return. runJob never
  // throws, so get() only re-raises stream-level surprises.
  for (std::future<void> &F : Pending)
    F.get();
  Stats.Drained = drainRequested();
  return Stats;
}

//===----------------------------------------------------------------------===//
// Unix socket transport
//===----------------------------------------------------------------------===//

namespace {

/// A minimal bidirectional streambuf over one file descriptor. Short and
/// EINTR-interrupted reads surface as EOF to the stream — exactly what the
/// drain path wants: a SIGTERM interrupting a blocked read ends the frame
/// loop at a frame boundary. Writes are the opposite: the same signal must
/// never truncate an in-flight response ("every admitted job is answered"),
/// so flushOut retries interrupted writes.
class FdStreamBuf : public std::streambuf {
public:
  explicit FdStreamBuf(int Fd) : Fd(Fd) {
    setg(InBuf, InBuf, InBuf);
    setp(OutBuf, OutBuf + sizeof(OutBuf));
  }
  ~FdStreamBuf() override { sync(); }

protected:
  int_type underflow() override {
    ssize_t N = ::read(Fd, InBuf, sizeof(InBuf));
    if (N <= 0)
      return traits_type::eof();
    setg(InBuf, InBuf, InBuf + N);
    return traits_type::to_int_type(InBuf[0]);
  }

  int_type overflow(int_type C) override {
    if (flushOut() != 0)
      return traits_type::eof();
    if (!traits_type::eq_int_type(C, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(C);
      pbump(1);
    }
    return traits_type::not_eof(C);
  }

  int sync() override { return flushOut(); }

private:
  int flushOut() {
    const char *Cur = pbase();
    while (Cur != pptr()) {
      ssize_t N = ::write(Fd, Cur, static_cast<size_t>(pptr() - Cur));
      if (N < 0 && errno == EINTR)
        continue; // The drain signal (no SA_RESTART) lands here too.
      if (N <= 0)
        return -1;
      Cur += N;
    }
    setp(OutBuf, OutBuf + sizeof(OutBuf));
    return 0;
  }

  int Fd;
  char InBuf[4096];
  char OutBuf[4096];
};

} // namespace

bool Server::serveUnixSocket(const std::string &Path, ServerStats &Stats,
                             std::string &Error) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Path;
    return false;
  }
  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listener < 0) {
    Error = "cannot create socket";
    return false;
  }
  Addr.sun_family = AF_UNIX;
  Path.copy(Addr.sun_path, sizeof(Addr.sun_path) - 1);
  ::unlink(Path.c_str());
  if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(Listener, 4) < 0) {
    Error = "cannot bind '" + Path + "'";
    ::close(Listener);
    return false;
  }

  telemetry::Registry &Reg = telemetry::Registry::global();
  while (!drainRequested()) {
    // Poll with a timeout so a drain request is observed promptly even
    // with no client connected.
    pollfd Pfd{Listener, POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, /*TimeoutMs=*/200);
    if (Ready < 0)
      continue; // EINTR: re-check the drain flag.
    if (Ready == 0)
      continue;
    int Conn = ::accept(Listener, nullptr, nullptr);
    if (Conn < 0)
      continue;
    Reg.counter("serve.connections").add();
    {
      FdStreamBuf Buf(Conn);
      std::istream In(&Buf);
      std::ostream ConnOut(&Buf);
      Stats.accumulate(serveStream(In, ConnOut));
    }
    ::close(Conn);
  }
  ::close(Listener);
  ::unlink(Path.c_str());
  return true;
}
