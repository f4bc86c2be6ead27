/**
 * @file
 * vlpsim serve daemon implementation.
 */

#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sim/report.h"
#include "sim/suite_runner.h"
#include "store/artifact_store.h"
#include "util/logging.h"

namespace vlp {
namespace serve {

namespace {

/** Periodic heartbeat frames for one running request. */
class HeartbeatGuard
{
  public:
    HeartbeatGuard(unsigned period_ms,
                   const std::function<void(std::uint64_t)> &beat)
    {
        if (period_ms == 0)
            return;
        thread_ = std::thread([this, period_ms, beat] {
            std::unique_lock<std::mutex> lock(mutex_);
            std::uint64_t sequence = 0;
            while (!done_) {
                if (stop_.wait_for(
                        lock, std::chrono::milliseconds(period_ms),
                        [this] { return done_; })) {
                    break;
                }
                // Chaos: the heartbeat thread stalls for one period —
                // clients must tolerate a silent-but-healthy request.
                if (CHAOS_SECTION("serve.heartbeat.stall"))
                    continue;
                beat(++sequence);
            }
        });
    }

    ~HeartbeatGuard()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        stop_.notify_all();
        thread_.join();
    }

  private:
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable stop_;
    bool done_ = false;
};

} // anonymous namespace

void
ExperimentServer::Connection::sendLine(const std::string &frame) noexcept
{
    std::lock_guard<std::mutex> lock(writeMutex);
    sendLineLocked(frame);
}

void
ExperimentServer::Connection::sendLineLocked(
    const std::string &frame) noexcept
{
    if (!alive)
        return;
    try {
        const std::string data = frame + "\n";
        // Chaos: the kernel takes the frame in two short writes with
        // a stall between them — clients reassemble off the stream,
        // so a split must never corrupt framing.
        if (data.size() > 1 && CHAOS_SECTION("serve.send.slow")) {
            const std::size_t half = data.size() / 2;
            socket.sendAll(data.substr(0, half));
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            socket.sendAll(data.substr(half));
        } else {
            socket.sendAll(data);
        }
    } catch (const std::exception &error) {
        // The peer vanished (or timed out a send without reading);
        // the request itself keeps running — its artifacts still
        // land in the store for the next asker.
        alive = false;
        util::debug(std::string("serve: dropped peer: ")
                    + error.what());
    }
}

const char *
ExperimentServer::describeState(State state)
{
    switch (state) {
    case State::Queued:
        return "queued";
    case State::Running:
        return "running";
    case State::Done:
        return "done";
    case State::Cancelled:
        return "cancelled";
    case State::Failed:
        return "failed";
    }
    return "unknown";
}

ExperimentServer::ExperimentServer(ServerOptions options)
    : options_(std::move(options)), queue_(options_.limits)
{
    if (options_.workers == 0)
        options_.workers = 1;
}

ExperimentServer::~ExperimentServer()
{
    stop();
}

void
ExperimentServer::start()
{
    {
        std::lock_guard<std::mutex> lock(lifecycleMutex_);
        if (started_)
            return;
        started_ = true;
    }
    if (options_.chaos.enabled) {
        util::chaos::configure(options_.chaos);
        util::inform("serve: chaos enabled (seed "
                     + std::to_string(options_.chaos.seed) + ")");
    }
    if (::pipe(shutdownPipe_) != 0)
        throw std::runtime_error("serve: cannot create shutdown pipe");
    // The write end is poked from signal handlers: it must fail with
    // EAGAIN on a full pipe, never block inside a handler.
    const int flags = ::fcntl(shutdownPipe_[1], F_GETFL);
    if (flags >= 0)
        ::fcntl(shutdownPipe_[1], F_SETFL, flags | O_NONBLOCK);
    listen_.emplace(util::net::ListenSocket::listen(options_.listen));
    local_ = listen_->local();
    util::inform("serve: listening on " + local_.describe() + " ("
                 + std::to_string(options_.workers) + " workers, depth "
                 + std::to_string(options_.limits.maxDepth) + ")");
    for (unsigned i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
ExperimentServer::run()
{
    start();
    // Block until the self-pipe becomes readable: SIGTERM (the CLI
    // wires it to notifyShutdown()), a client shutdown frame, or any
    // direct notifyShutdown() call. The byte is never consumed, so
    // every other poller (the accept loop) sees the same signal.
    pollfd poller{};
    poller.fd = shutdownPipe_[0];
    poller.events = POLLIN;
    while (::poll(&poller, 1, -1) < 0 && errno == EINTR)
        continue;
    util::inform("serve: shutdown requested; draining "
                 + std::to_string(queue_.depth()) + " queued requests");
    requestDrain();
    awaitIdle();
    stop();
    util::inform("serve: stopped");
}

void
ExperimentServer::notifyShutdown() noexcept
{
    if (shutdownPipe_[1] >= 0) {
        // Async-signal-safe: a single write, result deliberately
        // ignored (the pipe being full already means "signalled").
        [[maybe_unused]] const ssize_t n =
            ::write(shutdownPipe_[1], "x", 1);
    }
}

void
ExperimentServer::requestDrain()
{
    queue_.drain();
}

void
ExperimentServer::awaitIdle()
{
    queue_.awaitIdle();
}

void
ExperimentServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(lifecycleMutex_);
        if (!started_ || stopped_)
            return;
        stopped_ = true;
    }
    notifyShutdown();
    queue_.close();
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    {
        // Unblock every connection reader; their threads then exit.
        // writeMutex serializes against a concurrent self-close in
        // serveConnection (fd reuse would make shutdown() misfire).
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        for (const auto &connection : connections_) {
            std::lock_guard<std::mutex> write(connection->writeMutex);
            connection->alive = false;
            if (connection->socket.valid())
                ::shutdown(connection->socket.fd(), SHUT_RDWR);
        }
    }
    std::vector<ConnectionThread> threads;
    {
        // Join outside connectionsMutex_: exiting connection threads
        // take it to deregister themselves.
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        threads.swap(connectionThreads_);
    }
    for (ConnectionThread &entry : threads) {
        if (entry.thread.joinable())
            entry.thread.join();
    }
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections_.clear();
    }
    listen_.reset();
    for (int &fd : shutdownPipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

ServerStats
ExperimentServer::stats() const
{
    std::lock_guard<std::mutex> lock(registryMutex_);
    return stats_;
}

void
ExperimentServer::reapConnectionThreadsLocked()
{
    auto it = connectionThreads_.begin();
    while (it != connectionThreads_.end()) {
        if (it->done->load(std::memory_order_acquire)) {
            it->thread.join();
            it = connectionThreads_.erase(it);
        } else {
            ++it;
        }
    }
}

void
ExperimentServer::acceptLoop()
{
    for (;;) {
        std::optional<util::net::Socket> client;
        try {
            client = listen_->accept(shutdownPipe_[0]);
        } catch (const std::exception &error) {
            util::error(std::string("serve: accept failed: ")
                        + error.what());
            // Back off: persistent failures (e.g. EMFILE) must not
            // become a busy error loop. The shutdown pipe still
            // wakes the next accept() immediately.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            continue;
        }
        if (!client)
            return; // woken by the shutdown pipe
        // Chaos: the connection dies right after accept (EMFILE-class
        // fallout); the peer sees an immediate close and must retry.
        if (CHAOS_SECTION("serve.accept.drop")) {
            util::warn("serve: chaos dropped an accepted connection");
            continue;
        }
        if (options_.sendTimeoutMs != 0) {
            try {
                client->setSendTimeout(options_.sendTimeoutMs);
            } catch (const std::exception &error) {
                util::error(std::string("serve: ") + error.what());
                continue;
            }
        }
        auto connection =
            std::make_shared<Connection>(std::move(*client));
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        reapConnectionThreadsLocked();
        connections_.push_back(connection);
        ConnectionThread entry;
        entry.done = done;
        entry.thread = std::thread([this, connection, done] {
            serveConnection(connection);
            done->store(true, std::memory_order_release);
        });
        connectionThreads_.push_back(std::move(entry));
    }
}

void
ExperimentServer::serveConnection(std::shared_ptr<Connection> connection)
{
    connection->sendLine(helloFrame());
    util::net::LineReader reader(connection->socket);
    std::string line;
    for (;;) {
        try {
            if (!reader.readLine(line))
                break; // orderly peer shutdown
        } catch (const std::exception &) {
            break; // reset, or unblocked by stop()
        }
        if (line.empty())
            continue;
        handleFrame(connection, line);
    }
    {
        // Close under writeMutex (sendAll runs under it), so the fd
        // is released the moment the client disconnects instead of
        // accumulating until stop().
        std::lock_guard<std::mutex> lock(connection->writeMutex);
        connection->alive = false;
        connection->socket.close();
    }
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections_.erase(std::remove(connections_.begin(),
                                       connections_.end(), connection),
                           connections_.end());
    }
    // Running requests submitted on this connection hold their own
    // shared_ptr; their sends become no-ops (!alive) and the object
    // dies with its last reference.
}

void
ExperimentServer::handleFrame(
    const std::shared_ptr<Connection> &connection,
    const std::string &line)
{
    util::Json frame;
    try {
        frame = util::Json::parse(line);
        if (!frame.isObject())
            throw std::runtime_error("frame must be a JSON object");
    } catch (const std::exception &error) {
        connection->sendLine(errorFrame(0, error.what()));
        return;
    }
    const util::Json *type = frame.find("type");
    if (type == nullptr || !type->isString()) {
        connection->sendLine(
            errorFrame(0, "frame needs a string 'type'"));
        return;
    }
    try {
        const std::string &name = type->asString();
        if (name == "submit") {
            handleSubmit(connection, frame, line.size());
        } else if (name == "status") {
            handleStatus(connection, frame);
        } else if (name == "cancel") {
            handleCancel(connection, frame);
        } else if (name == "shutdown") {
            connection->sendLine(shuttingDownFrame());
            util::inform("serve: shutdown frame received");
            notifyShutdown();
        } else {
            connection->sendLine(
                errorFrame(0, "unknown frame type '" + name + "'"));
        }
    } catch (const std::exception &error) {
        connection->sendLine(errorFrame(0, error.what()));
    }
}

void
ExperimentServer::handleSubmit(
    const std::shared_ptr<Connection> &connection,
    const util::Json &frame, std::size_t frame_bytes)
{
    SubmitSpec spec;
    try {
        spec = parseSubmit(frame);
    } catch (const std::exception &error) {
        connection->sendLine(errorFrame(0, error.what()));
        return;
    }

    auto request = std::make_shared<Request>();
    request->spec = std::move(spec);
    request->cost = request->spec.cost(frame_bytes);
    request->connection = connection;
    request->cancel = std::make_shared<util::CancelToken>();
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        request->id = nextId_++;
        requests_[request->id] = request;
    }

    QueueItem item;
    item.id = request->id;
    item.priority = request->spec.priority;
    item.bytes = request->cost;
    item.work = [this, request] { execute(request); };
    Admission admission;
    {
        // Hold the connection's writeMutex across push + accepted:
        // a worker can pop and finish the request immediately, but
        // its result frame blocks on this mutex, so the accepted
        // frame is always first on the wire for this request.
        std::lock_guard<std::mutex> write(connection->writeMutex);
        // Chaos: admission control reports a full queue — the client
        // must treat the 429 as a clean terminal answer and retry.
        if (CHAOS_SECTION("serve.admission.queue-full",
                          request->spec.op)) {
            admission = Admission::QueueFull;
        } else {
            admission = queue_.push(std::move(item));
        }
        if (admission == Admission::Accepted) {
            {
                std::lock_guard<std::mutex> lock(registryMutex_);
                ++stats_.accepted;
            }
            connection->sendLineLocked(acceptedFrame(
                request->id, queue_.position(request->id).value_or(0)));
        }
    }
    if (admission != Admission::Accepted) {
        {
            std::lock_guard<std::mutex> lock(registryMutex_);
            requests_.erase(request->id);
            ++stats_.rejected;
        }
        util::warn("serve: rejected " + request->spec.op + " ("
                   + describeAdmission(admission) + ")");
        connection->sendLine(rejectedFrame(admissionCode(admission),
                                           describeAdmission(admission)));
        return;
    }
    util::inform("serve: accepted request "
                 + std::to_string(request->id) + " ("
                 + request->spec.op + ")");
}

void
ExperimentServer::handleStatus(
    const std::shared_ptr<Connection> &connection,
    const util::Json &frame)
{
    const util::Json *id_field = frame.find("id");
    if (id_field == nullptr) {
        std::lock_guard<std::mutex> lock(registryMutex_);
        connection->sendLine(serverStatusFrame(
            queue_.depth(), queue_.inflightBytes(), stats_.accepted,
            stats_.rejected, stats_.completed, stats_.cancelled,
            queue_.draining()));
        return;
    }
    if (!id_field->isNumber()) {
        connection->sendLine(
            errorFrame(0, "status frame 'id' must be a number"));
        return;
    }
    const std::uint64_t id = id_field->asUint();
    std::shared_ptr<Request> request;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        const auto it = requests_.find(id);
        if (it != requests_.end())
            request = it->second;
    }
    if (!request) {
        connection->sendLine(errorFrame(id, "unknown request"));
        return;
    }
    State state;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        state = request->state;
    }
    connection->sendLine(statusReportFrame(
        id, describeState(state),
        queue_.position(id).value_or(std::size_t(-1))));
}

void
ExperimentServer::handleCancel(
    const std::shared_ptr<Connection> &connection,
    const util::Json &frame)
{
    const util::Json *id_field = frame.find("id");
    if (id_field == nullptr || !id_field->isNumber()) {
        connection->sendLine(
            errorFrame(0, "cancel frame needs a numeric 'id'"));
        return;
    }
    const std::uint64_t id = id_field->asUint();
    std::shared_ptr<Request> request;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        const auto it = requests_.find(id);
        if (it != requests_.end())
            request = it->second;
    }
    if (!request) {
        connection->sendLine(errorFrame(id, "unknown request"));
        return;
    }

    // Fire the token first: if the request slips from queued to
    // running between our remove() attempt and now, it still unwinds
    // at its first step boundary.
    request->cancel->cancel();
    if (queue_.remove(id)) {
        setState(request, State::Cancelled);
        {
            std::lock_guard<std::mutex> lock(registryMutex_);
            ++stats_.cancelled;
        }
        util::inform("serve: cancelled queued request "
                     + std::to_string(id));
        const std::string line = cancelledFrame(id, "queued");
        connection->sendLine(line);
        if (request->connection != connection)
            request->connection->sendLine(line);
        retireRequest(request);
        return;
    }

    State state;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        state = request->state;
    }
    if (state == State::Queued || state == State::Running) {
        // Popped (possibly mid-run); the worker acks the submitter
        // with a cancelled frame when it unwinds. Tell the canceller
        // the cancellation is in flight.
        util::inform("serve: cancelling running request "
                     + std::to_string(id));
        connection->sendLine(
            statusReportFrame(id, "cancelling", std::size_t(-1)));
        return;
    }
    // Already terminal; report the final state instead.
    connection->sendLine(
        statusReportFrame(id, describeState(state), std::size_t(-1)));
}

ExperimentServer::State
ExperimentServer::setState(const std::shared_ptr<Request> &request,
                           State state)
{
    std::lock_guard<std::mutex> lock(registryMutex_);
    const State previous = request->state;
    request->state = state;
    return previous;
}

void
ExperimentServer::retireRequest(const std::shared_ptr<Request> &request)
{
    if (options_.finishedWindow == 0)
        return; // unbounded: keep every request (tests, short runs)
    std::lock_guard<std::mutex> lock(registryMutex_);
    finishedOrder_.push_back(request->id);
    while (finishedOrder_.size() > options_.finishedWindow) {
        requests_.erase(finishedOrder_.front());
        finishedOrder_.pop_front();
    }
}

void
ExperimentServer::workerLoop()
{
    for (;;) {
        std::optional<QueueItem> item = queue_.pop();
        if (!item)
            return;
        item->work();
        queue_.finish(item->bytes);
    }
}

sim::Report
ExperimentServer::runOperation(
    const Request &request,
    const std::shared_ptr<store::ArtifactStore> &store,
    std::uint64_t &predictions)
{
    const SubmitSpec &spec = request.spec;
    const auto clampJobs = [this](unsigned jobs) {
        if (options_.maxJobsPerRequest == 0)
            return jobs;
        if (jobs == 0 || jobs > options_.maxJobsPerRequest)
            return options_.maxJobsPerRequest;
        return jobs;
    };
    const sim::ProgressFn progress =
        [&request](const sim::ServiceProgress &tick) {
            // Chaos: cancellation lands exactly at a step boundary —
            // the request must unwind to a clean cancelled frame from
            // any stage.
            if (CHAOS_SECTION("serve.cancel.step", request.spec.op))
                request.cancel->cancel();
            request.connection->sendLine(
                progressFrame(request.id, tick.stage, tick.completed,
                              tick.total));
        };

    if (spec.op == "suite") {
        sim::SuiteCompareSpec suite = spec.suite;
        suite.jobs = clampJobs(suite.jobs);
        sim::ServiceResult result = sim::runSuiteCompare(
            suite, store, request.cancel, progress);
        predictions = result.predictions;
        return std::move(result.report);
    }
    if (spec.op == "sweep") {
        sim::SweepSpec sweep = spec.sweep;
        sweep.jobs = clampJobs(sweep.jobs);
        sim::ServiceResult result =
            sim::runSweep(sweep, store, request.cancel, progress);
        predictions = result.predictions;
        return std::move(result.report);
    }
    if (spec.op == "trace-suite") {
        sim::TraceSuiteOptions options;
        options.directory = spec.tracesDirectory;
        options.manifest = spec.pairsManifest;
        options.bytes = spec.traceBytes;
        options.jobs = clampJobs(spec.traceJobs);
        options.store = store;
        options.cancel = request.cancel;
        progress({"trace suite", 0, 1});
        sim::TraceSuiteRunner runner(std::move(options));
        const sim::SuiteReport suite = runner.run();
        progress({"done", 1, 1});
        return suite.toReport();
    }
    if (spec.op == "sleep") {
        // Debug op: hold this worker slot, checking the token every
        // slice, so tests can fill the queue and cancel mid-run
        // deterministically.
        unsigned remaining_ms = spec.sleepMs;
        progress({"sleep", 0, 1});
        while (remaining_ms > 0) {
            request.cancel->throwIfCancelled();
            const unsigned slice = remaining_ms < 5 ? remaining_ms : 5;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(slice));
            remaining_ms -= slice;
        }
        request.cancel->throwIfCancelled();
        sim::Report report;
        report.title = "sleep";
        report.setMeta("ms", std::uint64_t{spec.sleepMs});
        return report;
    }
    throw std::runtime_error("unknown op '" + spec.op + "'");
}

void
ExperimentServer::execute(const std::shared_ptr<Request> &request)
{
    // Cancel raced the pop: the token fired but remove() was too
    // late. Honor it without starting.
    if (request->cancel->cancelled()) {
        setState(request, State::Cancelled);
        {
            std::lock_guard<std::mutex> lock(registryMutex_);
            ++stats_.cancelled;
        }
        request->connection->sendLine(
            cancelledFrame(request->id, "queued"));
        retireRequest(request);
        return;
    }
    setState(request, State::Running);

    HeartbeatGuard heartbeat(
        options_.heartbeatMs,
        [request](std::uint64_t sequence) {
            request->connection->sendLine(
                heartbeatFrame(request->id, sequence));
        });

    try {
        std::shared_ptr<store::ArtifactStore> store;
        if (!options_.cacheDirectory.empty()) {
            store::StoreOptions store_options;
            store_options.directory = options_.cacheDirectory;
            store_options.maxBytes = options_.cacheMaxBytes;
            store = std::make_shared<store::ArtifactStore>(
                store_options);
        }

        std::uint64_t predictions = 0;
        sim::Report report =
            runOperation(*request, store, predictions);
        // Same stamp the CLI applies on export, so a saved serve
        // report is byte-identical to `vlpsim suite --format json`.
        sim::stampBuildInfo(report);

        store::StoreCounters counters;
        if (store)
            counters = store->counters();
        const bool warm = store != nullptr && counters.misses == 0
            && counters.hits > 0;
        const std::string frame =
            resultFrame(request->id, report, counters.hits,
                        counters.misses, counters.inserts, warm,
                        predictions);
        // State and counter first, frame second (like the cancel and
        // failure paths): a client that has its result frame must
        // never read a status that does not count it yet.
        setState(request, State::Done);
        {
            std::lock_guard<std::mutex> lock(registryMutex_);
            ++stats_.completed;
        }
        request->connection->sendLine(frame);
        util::inform("serve: request " + std::to_string(request->id)
                     + " done (" + (warm ? "warm" : "cold") + ", "
                     + std::to_string(counters.hits) + " cache hits)");
    } catch (const util::CancelledError &) {
        setState(request, State::Cancelled);
        {
            std::lock_guard<std::mutex> lock(registryMutex_);
            ++stats_.cancelled;
        }
        util::inform("serve: request " + std::to_string(request->id)
                     + " cancelled mid-run");
        request->connection->sendLine(
            cancelledFrame(request->id, "running"));
    } catch (const std::exception &error) {
        setState(request, State::Failed);
        {
            std::lock_guard<std::mutex> lock(registryMutex_);
            ++stats_.failed;
        }
        util::error("serve: request " + std::to_string(request->id)
                    + " failed: " + error.what());
        request->connection->sendLine(
            errorFrame(request->id, error.what()));
    }
    retireRequest(request);
}

} // namespace serve
} // namespace vlp
