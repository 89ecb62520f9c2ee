#ifndef PEEGA_SERVE_PROTOCOL_H_
#define PEEGA_SERVE_PROTOCOL_H_

#include <sys/un.h>

#include <cstdint>
#include <string>

#include "eval/registry.h"
#include "obs/json.h"
#include "status/status.h"

namespace repro::serve {

/// Wire protocol of the `graphguard serve` job server: one JSON object
/// per line in both directions over a local (AF_UNIX) stream socket.
///
/// Request:  {"id":N, "tenant":"team-a", "op":"attack", ...op fields}
/// Response: {"id":N, "tenant":"team-a", "ok":true|false,
///            "code":"OK"|"RESOURCE_EXHAUSTED"|..., "error":"...",
///            "queue_ms":Q, "run_ms":R, "attempts":A, "result":{...}}
///
/// Ops: "ping", "attack", "eval", "stats", "cancel" (target_id),
/// "pause"/"resume" (operational scheduler gate), "shutdown" (graceful
/// drain). Attack/eval are queued jobs subject to admission control and
/// per-request deadlines (`deadline_ms`); the rest are answered inline.
/// "attempts" counts the runs the job took (> 1 after transient-failure
/// retries). With `--journal` the stats result additionally carries
/// "journal", "recovery", and "retry" objects (see server.h).
struct Request {
  int64_t id = 0;
  std::string tenant;
  std::string op;
  obs::Json raw;  // full request object for op-specific fields
};

/// Parses one request line. Enforces the envelope: a JSON object with a
/// string "op", an optional integer "id" (default 0) and an optional
/// well-formed string "tenant" (default "default"; max 32 chars of
/// [A-Za-z0-9_-], keeping per-tenant metric names bounded and clean).
/// Anything else is INVALID_INPUT naming the field.
status::Status ParseRequest(const std::string& line, Request* out);
/// The same for a request already decoded (a journaled one).
status::Status ParseRequest(obs::Json object, Request* out);

/// An "attack" or "eval" job: its envelope fields and its op's fields.
struct JobRequest {
  std::string graph;          // required: path of the graph to run on
  double deadline_ms = 0.0;   // > 0 when set; armed at admission
  std::string out;            // attack: write the poisoned graph here
  bool return_flips = false;  // attack: echo the flip sequence
  eval::AttackerSpec attack;  // op "attack" (eval/op_schema.h)
  eval::EvalSpec eval;        // op "eval"
};

/// Reads a parsed attack/eval request into `out`. The server runs it at
/// admission, so a malformed job is never queued or journaled, and again
/// for each job recovered from the journal. A key that is neither an
/// envelope field nor a field of the op, a value of the wrong type or
/// out of range, and any other op are INVALID_INPUT naming the field.
status::Status ParseJob(const Request& request, JobRequest* out);

/// The integer "target_id" of a cancel request (INVALID_INPUT if absent
/// or not an integer).
status::StatusOr<int64_t> CancelTarget(const Request& request);

/// Response envelope for `status`; callers attach op-specific fields
/// ("result", "queue_ms", ...) before encoding.
obs::Json MakeResponse(int64_t id, const std::string& tenant,
                       const status::Status& status);

/// Fills `*out` with the AF_UNIX address of `socket_path`, the one check
/// and build the server and the client share. INVALID_INPUT when the
/// path is empty or does not fit `sun_path`.
status::Status UnixAddress(const std::string& socket_path, sockaddr_un* out);

/// Compact one-line encoding with the trailing newline appended.
std::string EncodeLine(const obs::Json& message);

/// Lenient field accessors for clients reading responses (absent key or
/// wrong type -> default). Requests are read strictly, by ParseRequest
/// and ParseJob.
std::string GetString(const obs::Json& object, const std::string& key,
                      const std::string& fallback);
double GetNumber(const obs::Json& object, const std::string& key,
                 double fallback);
bool GetBool(const obs::Json& object, const std::string& key,
             bool fallback);

}  // namespace repro::serve

#endif  // PEEGA_SERVE_PROTOCOL_H_
