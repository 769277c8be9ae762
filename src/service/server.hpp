/// \file server.hpp
/// \brief Unix-domain socket front-end of the sampling service.
///
/// ServiceServer binds the protocol (frame.hpp) to the compute core
/// (job_manager.hpp): an accept loop hands each connection to its own
/// thread, which reads one NDJSON control line and answers with
/// length-prefixed frames.  A submit connection stays open for the job's
/// lifetime — a SocketObserver forwards the pipeline's on_superstep /
/// on_checkpoint / on_replicate_done callbacks over the socket as 'J'
/// event frames (a corpus job's tagged with the member's name, plus one
/// `graph` event per settled member) and streams each finished replicate's
/// output file as a 'G' graph frame, so clients see results exactly as
/// they land on the daemon's disk.  status / cancel / shutdown connections
/// answer one 'J' frame and close.
///
/// Shutdown (client "shutdown" frame or SIGTERM via request_stop) stops
/// accepting, drains the JobManager — running checkpointed jobs stop at
/// their next checkpoint boundary, uncheckpointed ones finish — and joins
/// every connection thread before serve() returns.
#pragma once

#include "check/checked_mutex.hpp"
#include "obs/timeseries.hpp"
#include "service/job_manager.hpp"
#include "service/socket.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace gesmc {

struct ServerConfig {
    std::string socket_path;   ///< Unix-domain socket to listen on
    unsigned threads = 0;      ///< shared executor width (0 = hardware)
    unsigned max_jobs = 2;     ///< jobs running concurrently; others queue
    /// Telemetry sampler tick; `watch` subscribers get one frame per tick.
    std::chrono::milliseconds telemetry_interval{1000};
    /// Optional NDJSON time-series sink (one row per tick, tail -f-able).
    std::string telemetry_out;
};

/// JobObserver streaming one job's events over one connection.  Callbacks
/// fire concurrently from pool threads (RunObserver contract), so every
/// send is serialized by a mutex; a replicate graph's whole chunked
/// transfer ('G' header + 'D' chunks, copied from the output file in
/// O(chunk) memory) holds the mutex once, keeping its frames contiguous on
/// the wire.  A failed send (client vanished) flips broken() permanently,
/// drops all further output, and invokes the on_broken callback once — the
/// server wires that to JobManager::cancel so an orphaned job stops
/// wasting the machine.  Never throws: observer callbacks unwind through
/// the pipeline's pool threads.
class SocketObserver final : public JobObserver {
public:
    /// `chunk_bytes` bounds each 'D' frame (and the daemon-side buffer);
    /// tests shrink it to exercise multi-chunk transfers on small files.
    /// `corpus` (a corpus job's plan, else null) names the members that
    /// the corpus callbacks' `graph` indexes.
    SocketObserver(int fd, std::uint64_t job_id, std::function<void()> on_broken,
                   std::uint64_t chunk_bytes = kGraphChunkBytes,
                   const CorpusPlan* corpus = nullptr);

    void on_superstep(std::uint64_t replicate, const Chain& chain) override;
    void on_checkpoint(std::uint64_t replicate, const ChainState& state,
                       const std::string& path) override;
    void on_replicate_done(const ReplicateReport& report) override;

    void on_superstep(std::size_t graph, std::uint64_t replicate,
                      const Chain& chain) override;
    void on_checkpoint(std::size_t graph, std::uint64_t replicate, const ChainState& state,
                       const std::string& path) override;
    void on_replicate_done(std::size_t graph, const ReplicateReport& report) override;
    void on_graph_done(std::size_t graph, const CorpusGraphRow& row) override;

    [[nodiscard]] bool broken() const noexcept {
        return broken_.load(std::memory_order_relaxed);
    }

    /// Sends an already-encoded frame (used by the server for job-level
    /// events on the same stream); drops it silently once broken.
    void send_frame(const std::string& encoded);

private:
    /// The frames of one pipeline event; `graph` is the corpus member's
    /// name, null for a single-graph job.
    void superstep(const std::string* graph, std::uint64_t replicate, const Chain& chain);
    void checkpoint(const std::string* graph, std::uint64_t replicate,
                    const ChainState& state, const std::string& path);
    void replicate_done(const std::string* graph, const ReplicateReport& report);

    /// Streams `path` as one chunked graph transfer for `replicate`: a 'G'
    /// header named `name`, then ≤ chunk_bytes 'D' frames read-and-sent in
    /// a copy loop.  Throws Error on file trouble (caller reports it as an
    /// event); a *socket* failure flips broken() like any other send.
    void send_graph(std::uint64_t replicate, const std::string& path,
                    const std::string& name);

    /// Encodes and writes under an already-held mutex_; returns false once
    /// the stream broke (sets broken_, defers on_broken_ to the caller).
    bool send_frame_locked(FrameType type, std::string_view payload)
        GESMC_REQUIRES(mutex_);

    CheckedMutex mutex_{LockRank::kSocketObserver, "SocketObserver"};
    int fd_;
    std::uint64_t job_id_;
    std::function<void()> on_broken_;
    std::uint64_t chunk_bytes_;
    std::vector<std::string> members_; ///< corpus member names, by plan index
    std::atomic<bool> broken_{false};
};

class ServiceServer {
public:
    /// Binds the socket (throws Error on failure, e.g. a live daemon
    /// already listening) and starts the job manager; serve() must follow.
    explicit ServiceServer(const ServerConfig& config);
    ~ServiceServer();

    ServiceServer(const ServiceServer&) = delete;
    ServiceServer& operator=(const ServiceServer&) = delete;

    /// Accept loop: blocks until request_stop() (or a client shutdown
    /// frame), then drains jobs and joins connection threads.  `log` (may
    /// be null) receives human-readable progress lines.
    void serve(std::ostream* log);

    /// Triggers shutdown from another thread or a signal handler — only
    /// writes one byte to an internal pipe (async-signal-safe).
    void request_stop() noexcept;

    [[nodiscard]] const std::string& socket_path() const noexcept {
        return config_.socket_path;
    }

private:
    /// Serves one connection; `fd` stays owned (and open) by the caller.
    void handle_connection(int fd, std::ostream* log);

    /// The `watch` subscription loop: pushes one telemetry 'J' frame per
    /// sampler tick until the client disconnects (failed write) or the
    /// daemon stops.  Runs on the connection's own thread.
    void stream_telemetry(int fd);

    /// Joins connection threads that announced completion (each accept-loop
    /// wakeup — exiting threads poke the wake pipe, so an idle daemon never
    /// retains dead-but-unjoined threads); `join_all` additionally blocks
    /// on the still-running ones (shutdown).
    void reap_connections(bool join_all);

    /// Wakes the accept loop's poll via the self-pipe (async-signal-safe).
    void wake() noexcept;

    /// shutdown(SHUT_RD) on every live connection so threads blocked
    /// reading a control line from an idle client wake with EOF instead of
    /// hanging the daemon's exit; pending writes (done frames) still flush.
    void unblock_active_connections();

    ServerConfig config_;
    JobManager manager_;
    FdHandle listen_fd_;
    FdHandle wake_read_;
    FdHandle wake_write_;
    std::atomic<bool> stop_{false};

    CheckedMutex connections_mutex_{LockRank::kServerConnections,
                                    "ServiceServer.connections"};
    std::uint64_t next_connection_ GESMC_GUARDED_BY(connections_mutex_) = 0;
    std::map<std::uint64_t, std::thread> connection_threads_
        GESMC_GUARDED_BY(connections_mutex_);
    /// Live connections, by id.
    std::map<std::uint64_t, int> active_fds_ GESMC_GUARDED_BY(connections_mutex_);
    /// Awaiting join.
    std::vector<std::uint64_t> finished_connections_
        GESMC_GUARDED_BY(connections_mutex_);

    /// Live-telemetry sampler feeding `watch` subscribers and the optional
    /// NDJSON sink.  Declared last: its destructor joins the sampler thread
    /// (which reads manager_ stats) before any other member dies.
    obs::TelemetrySampler sampler_;
};

} // namespace gesmc
