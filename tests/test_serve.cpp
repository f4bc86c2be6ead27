/**
 * @file
 * Tests for the serve subsystem: the request queue's admission
 * control, the wire-protocol codec, cooperative cancellation, the
 * daemon-grade logging hooks, and the ExperimentServer end to end
 * (in-process daemon + real sockets).
 *
 * The integration tests assert the PR's acceptance contract: schema-
 * valid streamed reports, warm duplicates answered from the artifact
 * store with a visible cache-hit flag, eight concurrent warm requests,
 * explicit 429 queue-overflow rejections, mid-run cancellation that
 * leaves other requests untouched, and serve reports byte-identical
 * to the CLI's JSON output. Experiment runs are pinned to
 * VLPSIM_SCALE=0.05 in main() so every cold run stays fast.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/request_queue.h"
#include "serve/server.h"
#include "sim/report.h"
#include "sim/service.h"
#include "store/artifact_store.h"
#include "trace/trace_io.h"
#include "util/cancel.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/socket.h"
#include "util/version.h"
#include "workload/benchmarks.h"

namespace {

using namespace vlp;

/** A scratch directory removed at scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        std::string pattern =
            (std::filesystem::temp_directory_path() / "vlpsim_serve_XXXXXX")
                .string();
        if (::mkdtemp(pattern.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed");
        path_ = pattern;
    }

    ~TempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

serve::SubmitSpec
suiteSpec(unsigned jobs)
{
    serve::SubmitSpec spec;
    spec.op = "suite";
    spec.suite.indirect = false;
    spec.suite.bytes = 1024;
    spec.suite.jobs = jobs;
    return spec;
}

serve::SubmitSpec
sleepSpec(unsigned ms, int priority = 0)
{
    serve::SubmitSpec spec;
    spec.op = "sleep";
    spec.sleepMs = ms;
    spec.priority = priority;
    return spec;
}

serve::QueueItem
queueItem(std::uint64_t id, int priority = 0, std::size_t bytes = 0)
{
    serve::QueueItem item;
    item.id = id;
    item.priority = priority;
    item.bytes = bytes;
    item.work = [] {};
    return item;
}

// --- util::net::Endpoint --------------------------------------------

TEST(Endpoint, ParsesTcpHostPort)
{
    const auto endpoint = util::net::Endpoint::parse("127.0.0.1:7070");
    EXPECT_EQ(endpoint.kind, util::net::Endpoint::Kind::Tcp);
    EXPECT_EQ(endpoint.host, "127.0.0.1");
    EXPECT_EQ(endpoint.port, 7070);
    EXPECT_EQ(endpoint.describe(), "127.0.0.1:7070");
}

TEST(Endpoint, ParsesEphemeralAndBarePort)
{
    EXPECT_EQ(util::net::Endpoint::parse(":0").port, 0);
    const auto bare = util::net::Endpoint::parse("7711");
    EXPECT_EQ(bare.kind, util::net::Endpoint::Kind::Tcp);
    EXPECT_EQ(bare.port, 7711);
}

TEST(Endpoint, ParsesUnixPath)
{
    const auto endpoint = util::net::Endpoint::parse("/tmp/vlp.sock");
    EXPECT_EQ(endpoint.kind, util::net::Endpoint::Kind::Unix);
    EXPECT_EQ(endpoint.path, "/tmp/vlp.sock");
    EXPECT_EQ(endpoint.describe(), "/tmp/vlp.sock");
}

TEST(Endpoint, RejectsMalformedPort)
{
    EXPECT_THROW(util::net::Endpoint::parse("127.0.0.1:notaport"),
                 std::runtime_error);
    EXPECT_THROW(util::net::Endpoint::parse("127.0.0.1:99999"),
                 std::runtime_error);
}

TEST(LineReader, CapsRunawayUnterminatedLines)
{
    auto listener = util::net::ListenSocket::listen(
        util::net::Endpoint::parse("127.0.0.1:0"));
    const util::net::Endpoint endpoint = listener.local();
    std::thread writer([endpoint] {
        try {
            auto socket = util::net::Socket::connect(endpoint);
            const std::string blob(4096, 'x'); // never a newline
            for (int i = 0; i < 8; ++i)
                socket.sendAll(blob);
        } catch (const std::exception &) {
            // The reader may drop the connection mid-stream.
        }
    });
    auto accepted = listener.accept(-1);
    ASSERT_TRUE(accepted.has_value());
    util::net::LineReader reader(*accepted, 16 * 1024);
    std::string line;
    EXPECT_THROW(reader.readLine(line), std::runtime_error);
    writer.join();
}

TEST(ReceiveTimeout, SilentDaemonTripsTimeoutInsteadOfHanging)
{
    // Accept-but-never-speak: the connection lands in the backlog and
    // the hello never arrives. A client with a receive timeout must
    // surface TimeoutError (the CLI maps it to exit code 3) instead
    // of blocking forever.
    auto listener = util::net::ListenSocket::listen(
        util::net::Endpoint::parse("127.0.0.1:0"));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(serve::ServeClient client(listener.local(), 100),
                 util::net::TimeoutError);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // It waited for the timeout, not for a connect failure.
    EXPECT_GE(elapsed, std::chrono::milliseconds(50));
}

TEST(ReceiveTimeout, RawSocketReceiveThrowsTypedError)
{
    auto listener = util::net::ListenSocket::listen(
        util::net::Endpoint::parse("127.0.0.1:0"));
    auto socket = util::net::Socket::connect(listener.local());
    socket.setRecvTimeout(50);
    char buffer[16];
    try {
        socket.receive(buffer, sizeof(buffer));
        FAIL() << "receive returned with no peer data";
    } catch (const util::net::TimeoutError &) {
        // TimeoutError derives from runtime_error so existing generic
        // handlers still catch it; the CLI distinguishes it by type.
    }
}

// --- compact JSON (the wire encoding) -------------------------------

TEST(CompactJson, RoundTripsFramesByteExactly)
{
    const std::string frame =
        R"({"type":"result","id":7,"rate":4.30,"tags":["a","b"],"ok":true})";
    EXPECT_EQ(util::toCompactJson(util::Json::parse(frame)), frame);
}

// --- serve::RequestQueue --------------------------------------------

TEST(RequestQueue, RejectsWhenDepthLimitReached)
{
    serve::RequestQueue queue({/*maxDepth=*/2, /*maxInflightBytes=*/0});
    EXPECT_EQ(queue.push(queueItem(1)), serve::Admission::Accepted);
    EXPECT_EQ(queue.push(queueItem(2)), serve::Admission::Accepted);
    EXPECT_EQ(queue.push(queueItem(3)), serve::Admission::QueueFull);
    EXPECT_EQ(queue.depth(), 2u);
}

TEST(RequestQueue, ByteBudgetCoversQueuedAndRunning)
{
    serve::RequestQueue queue({/*maxDepth=*/0, /*maxInflightBytes=*/100});
    EXPECT_EQ(queue.push(queueItem(1, 0, 60)),
              serve::Admission::Accepted);
    EXPECT_EQ(queue.push(queueItem(2, 0, 60)),
              serve::Admission::BytesExhausted);

    // Popping does not release the reservation: the item is running.
    const auto running = queue.pop();
    ASSERT_TRUE(running.has_value());
    EXPECT_EQ(queue.inflightBytes(), 60u);
    EXPECT_EQ(queue.push(queueItem(3, 0, 60)),
              serve::Admission::BytesExhausted);

    // finish() releases it and the next push fits.
    queue.finish(running->bytes);
    EXPECT_EQ(queue.inflightBytes(), 0u);
    EXPECT_EQ(queue.push(queueItem(4, 0, 60)),
              serve::Admission::Accepted);
}

TEST(RequestQueue, PopsByPriorityThenFifo)
{
    serve::RequestQueue queue({});
    ASSERT_EQ(queue.push(queueItem(1, 0)), serve::Admission::Accepted);
    ASSERT_EQ(queue.push(queueItem(2, 5)), serve::Admission::Accepted);
    ASSERT_EQ(queue.push(queueItem(3, 5)), serve::Admission::Accepted);
    ASSERT_EQ(queue.push(queueItem(4, 1)), serve::Admission::Accepted);

    std::vector<std::uint64_t> order;
    for (int i = 0; i < 4; ++i) {
        const auto item = queue.pop();
        ASSERT_TRUE(item.has_value());
        order.push_back(item->id);
        queue.finish(item->bytes);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3, 4, 1}));
}

TEST(RequestQueue, PositionReportsPopOrder)
{
    serve::RequestQueue queue({});
    ASSERT_EQ(queue.push(queueItem(1, 0)), serve::Admission::Accepted);
    ASSERT_EQ(queue.push(queueItem(2, 9)), serve::Admission::Accepted);
    // The high-priority late arrival jumps the line.
    EXPECT_EQ(queue.position(2), std::optional<std::size_t>(0));
    EXPECT_EQ(queue.position(1), std::optional<std::size_t>(1));
    EXPECT_EQ(queue.position(99), std::nullopt);
}

TEST(RequestQueue, RemoveOnlyCancelsStillQueuedItems)
{
    serve::RequestQueue queue({/*maxDepth=*/0, /*maxInflightBytes=*/100});
    ASSERT_EQ(queue.push(queueItem(1, 0, 40)),
              serve::Admission::Accepted);
    ASSERT_EQ(queue.push(queueItem(2, 0, 40)),
              serve::Admission::Accepted);

    const auto popped = queue.pop(); // id 1: now "running"
    ASSERT_TRUE(popped.has_value());
    EXPECT_FALSE(queue.remove(popped->id));

    EXPECT_TRUE(queue.remove(2)); // still queued: removable
    EXPECT_EQ(queue.inflightBytes(), 40u);
    EXPECT_FALSE(queue.remove(2)); // already gone
    queue.finish(popped->bytes);
}

TEST(RequestQueue, DrainRejectsNewWorkButServesQueued)
{
    serve::RequestQueue queue({});
    ASSERT_EQ(queue.push(queueItem(1)), serve::Admission::Accepted);
    queue.drain();
    EXPECT_TRUE(queue.draining());
    EXPECT_EQ(queue.push(queueItem(2)), serve::Admission::Draining);

    const auto item = queue.pop(); // admitted work still runs
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(item->id, 1u);
    queue.finish(item->bytes);
}

TEST(RequestQueue, CloseWakesBlockedPop)
{
    serve::RequestQueue queue({});
    std::atomic<bool> returned{false};
    std::thread worker([&] {
        EXPECT_FALSE(queue.pop().has_value());
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    queue.close();
    worker.join();
    EXPECT_TRUE(returned.load());
    EXPECT_EQ(queue.push(queueItem(1)), serve::Admission::Closed);
}

TEST(RequestQueue, AwaitIdleWaitsForPoppedWorkToFinish)
{
    serve::RequestQueue queue({});
    ASSERT_EQ(queue.push(queueItem(1, 0, 8)),
              serve::Admission::Accepted);
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());

    std::atomic<bool> idle{false};
    std::thread waiter([&] {
        queue.awaitIdle();
        idle.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // Queue is empty but the popped item has not finished: not idle.
    EXPECT_FALSE(idle.load());
    queue.finish(item->bytes);
    waiter.join();
    EXPECT_TRUE(idle.load());
}

TEST(RequestQueue, DescribesEveryAdmissionVerdict)
{
    for (const auto admission :
         {serve::Admission::Accepted, serve::Admission::QueueFull,
          serve::Admission::BytesExhausted, serve::Admission::Draining,
          serve::Admission::Closed}) {
        EXPECT_STRNE(serve::describeAdmission(admission), "");
    }
}

// --- serve protocol codec -------------------------------------------

TEST(Protocol, SubmitSuiteRoundTrips)
{
    serve::SubmitSpec spec = suiteSpec(4);
    spec.priority = -2;
    const auto parsed = serve::parseSubmit(
        util::Json::parse(serve::submitFrame(spec)));
    EXPECT_EQ(parsed.op, "suite");
    EXPECT_FALSE(parsed.suite.indirect);
    EXPECT_EQ(parsed.suite.bytes, 1024u);
    EXPECT_EQ(parsed.suite.jobs, 4u);
    EXPECT_EQ(parsed.priority, -2);
}

TEST(Protocol, SubmitSweepRoundTripsAndCostsSumOfBudgets)
{
    serve::SubmitSpec spec;
    spec.op = "sweep";
    spec.sweep.indirect = true;
    spec.sweep.budgets = {512, 1024, 4096};
    spec.sweep.jobs = 2;
    const auto parsed = serve::parseSubmit(
        util::Json::parse(serve::submitFrame(spec)));
    EXPECT_TRUE(parsed.sweep.indirect);
    EXPECT_EQ(parsed.sweep.budgets,
              (std::vector<std::size_t>{512, 1024, 4096}));
    EXPECT_EQ(parsed.cost(100), 100u + 512u + 1024u + 4096u);
}

TEST(Protocol, SubmitValidationNamesTheBadField)
{
    const auto parseText = [](const std::string &text) {
        return serve::parseSubmit(util::Json::parse(text));
    };
    EXPECT_THROW(parseText(R"({"type":"submit"})"), std::runtime_error);
    EXPECT_THROW(parseText(R"({"type":"submit","op":"bogus"})"),
                 std::runtime_error);
    EXPECT_THROW(
        parseText(R"({"type":"submit","op":"suite","bytes":0})"),
        std::runtime_error);
    EXPECT_THROW(
        parseText(R"({"type":"submit","op":"sweep","budgets":[]})"),
        std::runtime_error);
    EXPECT_THROW(
        parseText(
            R"({"type":"submit","op":"suite","priority":"high"})"),
        std::runtime_error);
    // Defaults: a bare sleep op gets a small default duration.
    EXPECT_EQ(parseText(R"({"type":"submit","op":"sleep"})").sleepMs,
              100u);
}

TEST(Protocol, AdmissionCodesAreHttpFlavored)
{
    EXPECT_EQ(serve::admissionCode(serve::Admission::Accepted), 0);
    EXPECT_EQ(serve::admissionCode(serve::Admission::QueueFull), 429);
    EXPECT_EQ(serve::admissionCode(serve::Admission::BytesExhausted),
              429);
    EXPECT_EQ(serve::admissionCode(serve::Admission::Draining), 503);
    EXPECT_EQ(serve::admissionCode(serve::Admission::Closed), 503);
}

TEST(Protocol, HelloFrameCarriesVersions)
{
    const auto hello = util::Json::parse(serve::helloFrame());
    EXPECT_EQ(hello.at("type").asString(), "hello");
    EXPECT_EQ(hello.at("service").asString(), serve::serviceName);
    EXPECT_EQ(hello.at("version").asString(), util::buildVersion());
    EXPECT_EQ(hello.at("schemaVersion").asUint(), 2u);
    EXPECT_EQ(hello.at("protocolVersion").asUint(),
              serve::protocolVersion);
}

TEST(Protocol, ServerFramesParseWithExpectedFields)
{
    const auto accepted =
        util::Json::parse(serve::acceptedFrame(7, 3));
    EXPECT_EQ(accepted.at("type").asString(), "accepted");
    EXPECT_EQ(accepted.at("id").asUint(), 7u);
    EXPECT_EQ(accepted.at("position").asUint(), 3u);

    const auto rejected =
        util::Json::parse(serve::rejectedFrame(429, "queue full"));
    EXPECT_EQ(rejected.at("type").asString(), "rejected");
    EXPECT_EQ(rejected.at("code").asUint(), 429u);

    const auto progress =
        util::Json::parse(serve::progressFrame(7, "compare", 1, 2));
    EXPECT_EQ(progress.at("type").asString(), "progress");
    EXPECT_EQ(progress.at("stage").asString(), "compare");

    const auto cancelled =
        util::Json::parse(serve::cancelledFrame(7, "queued"));
    EXPECT_EQ(cancelled.at("type").asString(), "cancelled");
    EXPECT_EQ(cancelled.at("state").asString(), "queued");

    const auto error = util::Json::parse(serve::errorFrame(0, "boom"));
    EXPECT_EQ(error.at("type").asString(), "error");
    EXPECT_EQ(error.at("id").asUint(), 0u);
}

/** The daemon renders a report once, straight into the frame. That
 *  must equal the former composition: the pretty export parsed back
 *  and re-emitted compact inside the same frame fields. */
TEST(ServeProtocol, ResultFrameRendersTheReportOnce)
{
    sim::Report report;
    report.title = "quote \" backslash \\ tab \t";
    report.configuration = "line one\nline two \x01 \xc3\xa9";
    report.setMeta("jobs", std::uint64_t{4});
    report.setMeta("note", "a/b \"c\"");
    sim::Section &table = report.addSection("conditional");
    table.columns = {{"benchmark"}, {"count"}, {"scaled"},
                     {"real"}, {"rate (%)"}};
    table.addRow("go", {sim::Cell::text("go \"1\""),
                        sim::Cell::count(12345678901234ull),
                        sim::Cell::scaled(17600000),
                        sim::Cell::real(0.1 + 0.2, 3),
                        sim::Cell::percent(22.288636363636364)});
    table.addRow("", {sim::Cell::text(""), sim::Cell::count(0),
                      sim::Cell::scaled(999), sim::Cell::real(-0.0, 1),
                      sim::Cell::percent(std::nan(""))});
    sim::Section &captioned = report.addSection("figure");
    captioned.caption = "caption\n";
    captioned.footer = "footer \\ end\n";
    captioned.columns = {{"x"}};
    captioned.addRow("x", {sim::Cell::percent(1e-7, 4)});
    report.addText("notes", "plain text section\n\ttabbed\n");

    std::ostringstream pretty;
    sim::JsonReportSink().write(report, pretty);
    util::JsonWriter old(util::JsonWriter::Style::Compact);
    old.beginObject();
    old.member("type", "result");
    old.member("id", std::uint64_t{7});
    old.member("status", "ok");
    old.member("cacheHits", std::uint64_t{45});
    old.member("cacheMisses", std::uint64_t{1});
    old.member("cacheInserts", std::uint64_t{2});
    old.member("cacheHit", false);
    old.member("predictions", std::uint64_t{41160000});
    old.key("report");
    util::writeJson(old, util::Json::parse(pretty.str()));
    old.endObject();

    const std::string frame =
        serve::resultFrame(7, report, 45, 1, 2, false, 41160000);
    EXPECT_EQ(frame, old.str());
    EXPECT_EQ(frame.find('\n'), std::string::npos);
    EXPECT_TRUE(sim::validateReportJson(
                    util::Json::parse(frame).at("report"))
                    .empty());
}

// --- cooperative cancellation ---------------------------------------

TEST(Cancellation, TokenIsSetOnceAndThrows)
{
    util::CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled());
    token.cancel();
    token.cancel(); // idempotent
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.throwIfCancelled(), util::CancelledError);
}

TEST(Cancellation, SuiteCompareUnwindsOnCancelledToken)
{
    auto token = std::make_shared<util::CancelToken>();
    token->cancel();
    sim::SuiteCompareSpec spec;
    spec.bytes = 1024;
    spec.jobs = 1;
    EXPECT_THROW(sim::runSuiteCompare(spec, nullptr, token),
                 util::CancelledError);
}

// --- logging hooks ---------------------------------------------------

TEST(Logging, SinkCapturesAndLevelFilters)
{
    std::vector<std::string> lines;
    util::setLogSink(
        [&lines](const std::string &line) { lines.push_back(line); });
    util::setLogLevel(util::LogLevel::Warn);

    util::inform("dropped below threshold");
    util::warn("kept warning");
    util::error("kept error");

    util::setLogLevel(util::LogLevel::Info);
    util::setLogSink({});

    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "warn: kept warning");
    EXPECT_EQ(lines[1], "error: kept error");
}

TEST(Logging, ParsesLevelSpellings)
{
    EXPECT_EQ(util::parseLogLevel("debug"), util::LogLevel::Debug);
    EXPECT_EQ(util::parseLogLevel("info"), util::LogLevel::Info);
    EXPECT_EQ(util::parseLogLevel("warn"), util::LogLevel::Warn);
    EXPECT_EQ(util::parseLogLevel("error"), util::LogLevel::Error);
    EXPECT_THROW(util::parseLogLevel("verbose"), std::runtime_error);
}

// --- build stamping --------------------------------------------------

TEST(Version, StampBuildInfoIsIdempotent)
{
    ASSERT_FALSE(util::buildVersion().empty());
    sim::Report report;
    sim::stampBuildInfo(report);
    sim::stampBuildInfo(report);
    ASSERT_EQ(report.metadata.size(), 1u);
    EXPECT_EQ(report.metadata[0].first, "vlpsimVersion");
    EXPECT_EQ(report.metadata[0].second, util::buildVersion());
}

// --- ExperimentServer end to end ------------------------------------

/** One in-process daemon on an ephemeral loopback port with its own
 *  artifact-store directory. */
class ServeTest : public ::testing::Test
{
  protected:
    void startServer(serve::ServerOptions options)
    {
        options.listen = util::net::Endpoint::parse("127.0.0.1:0");
        options.cacheDirectory = cacheDir_.path();
        server_ = std::make_unique<serve::ExperimentServer>(options);
        server_->start();
    }

    serve::ExperimentServer &server() { return *server_; }

    const std::string &cacheDirectory() const { return cacheDir_.path(); }

    std::unique_ptr<serve::ServeClient> connect()
    {
        return std::make_unique<serve::ServeClient>(
            server_->endpoint());
    }

    /** Submit @p spec and wait for its terminal frame. */
    util::Json submitAndAwait(
        serve::ServeClient &client, const serve::SubmitSpec &spec,
        const std::function<void(const util::Json &)> &event = {})
    {
        const auto submission = client.submit(spec);
        EXPECT_TRUE(submission.accepted) << submission.reason;
        return client.await(submission.id, event);
    }

  private:
    TempDir cacheDir_;
    std::unique_ptr<serve::ExperimentServer> server_;
};

TEST_F(ServeTest, HandshakeReportsServiceAndVersions)
{
    startServer({});
    const auto client = connect();
    const util::Json &hello = client->hello();
    EXPECT_EQ(hello.at("service").asString(), "vlpsim-serve");
    EXPECT_EQ(hello.at("version").asString(), util::buildVersion());
    EXPECT_EQ(hello.at("schemaVersion").asUint(), 2u);
    EXPECT_EQ(hello.at("protocolVersion").asUint(), 1u);
}

TEST_F(ServeTest, ListensOnUnixDomainSocket)
{
    TempDir dir;
    serve::ServerOptions options;
    options.listen =
        util::net::Endpoint::parse(dir.path() + "/serve.sock");
    serve::ExperimentServer server(options);
    server.start();
    serve::ServeClient client(server.endpoint());
    EXPECT_EQ(client.hello().at("service").asString(), "vlpsim-serve");
    server.stop();
}

TEST_F(ServeTest, SuiteResultIsSchemaValidAndStreamsProgress)
{
    startServer({});
    const auto client = connect();

    std::vector<std::string> stages;
    const auto result = submitAndAwait(
        *client, suiteSpec(2), [&stages](const util::Json &frame) {
            if (frame.at("type").asString() == "progress")
                stages.push_back(frame.at("stage").asString());
        });

    ASSERT_EQ(result.at("type").asString(), "result");
    EXPECT_EQ(result.at("status").asString(), "ok");
    EXPECT_GT(result.at("predictions").asUint(), 0u);
    const auto problems =
        sim::validateReportJson(result.at("report"));
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems.front());
    // The final stage tick always lands before the result frame.
    ASSERT_FALSE(stages.empty());
    EXPECT_EQ(stages.back(), "done");
}

TEST_F(ServeTest, DuplicateRequestIsServedWarmFromTheStore)
{
    startServer({});
    const auto client = connect();

    const auto cold = submitAndAwait(*client, suiteSpec(2));
    ASSERT_EQ(cold.at("status").asString(), "ok");
    EXPECT_FALSE(cold.at("cacheHit").asBool());
    EXPECT_GT(cold.at("cacheMisses").asUint(), 0u);

    const auto warm = submitAndAwait(*client, suiteSpec(2));
    ASSERT_EQ(warm.at("status").asString(), "ok");
    EXPECT_TRUE(warm.at("cacheHit").asBool());
    EXPECT_GT(warm.at("cacheHits").asUint(), 0u);
    EXPECT_EQ(warm.at("cacheMisses").asUint(), 0u);

    // The warm answer is the same document, byte for byte.
    EXPECT_EQ(util::toCompactJson(warm.at("report")),
              util::toCompactJson(cold.at("report")));
}

/**
 * A store filled before sweep entries existed holds only profile
 * entries. The first warm request writes their sweep entries and is
 * still a warm answer; the next one reads them and writes nothing.
 */
TEST_F(ServeTest, UnconvertedStoreIsServedWarm)
{
    const auto sweepEntries = [&] {
        std::size_t count = 0;
        for (const auto &file : std::filesystem::recursive_directory_iterator(
                 cacheDirectory() + "/objects")) {
            if (!file.is_regular_file())
                continue;
            std::ifstream in(file.path(), std::ios::binary);
            const std::string bytes(std::istreambuf_iterator<char>(in), {});
            count += bytes.find("kind=sweep;") != std::string::npos;
        }
        return count;
    };
    sim::SuiteCompareSpec cold;
    cold.bytes = suiteSpec(1).suite.bytes;
    store::StoreOptions store_options;
    store_options.directory = cacheDirectory();
    sim::Report report =
        sim::runSuiteCompare(
            cold, std::make_shared<store::ArtifactStore>(store_options))
            .report;
    ASSERT_EQ(sweepEntries(), 0u);
    sim::stampBuildInfo(report);
    std::ostringstream expected;
    sim::JsonReportSink().write(report, expected);
    const std::string cold_json =
        util::toCompactJson(util::Json::parse(expected.str()));

    startServer({});
    const auto client = connect();
    const std::uint64_t keys = workload::benchmarkSuite().size();
    for (const std::uint64_t inserts : {keys, std::uint64_t{0}}) {
        const auto warm = submitAndAwait(*client, suiteSpec(1));
        ASSERT_EQ(warm.at("status").asString(), "ok");
        EXPECT_TRUE(warm.at("cacheHit").asBool());
        EXPECT_EQ(warm.at("cacheMisses").asUint(), 0u);
        EXPECT_EQ(warm.at("cacheInserts").asUint(), inserts);
        EXPECT_EQ(sweepEntries(), keys);
        EXPECT_EQ(util::toCompactJson(warm.at("report")), cold_json);
    }
}

TEST_F(ServeTest, EightConcurrentWarmRequestsAllSucceed)
{
    serve::ServerOptions options;
    options.workers = 4;
    startServer(options);

    // Warm the store once, then fan out.
    submitAndAwait(*connect(), suiteSpec(2));

    constexpr int kClients = 8;
    std::vector<std::thread> threads;
    std::vector<std::string> reports(kClients);
    std::atomic<int> warm{0}, valid{0};
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            serve::ServeClient client(server().endpoint());
            const auto submission = client.submit(suiteSpec(2));
            ASSERT_TRUE(submission.accepted) << submission.reason;
            const auto result = client.await(submission.id);
            ASSERT_EQ(result.at("type").asString(), "result");
            if (result.at("cacheHit").asBool())
                warm.fetch_add(1);
            if (sim::validateReportJson(result.at("report")).empty())
                valid.fetch_add(1);
            reports[i] = util::toCompactJson(result.at("report"));
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(warm.load(), kClients);
    EXPECT_EQ(valid.load(), kClients);
    for (int i = 1; i < kClients; ++i)
        EXPECT_EQ(reports[i], reports[0]) << "client " << i;

    const auto stats = server().stats();
    EXPECT_GE(stats.completed, static_cast<std::uint64_t>(kClients + 1));
    EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ServeTest, QueueOverflowIsRejectedWith429)
{
    serve::ServerOptions options;
    options.workers = 1;
    options.limits.maxDepth = 1;
    startServer(options);
    const auto client = connect();

    // One running, one queued: the queue is now at capacity. Wait
    // for the worker to actually pop the first request — until then
    // it still occupies the queue slot and the second submit would
    // be the one rejected.
    const auto running = client->submit(sleepSpec(3000));
    ASSERT_TRUE(running.accepted);
    while (client->status(running.id).at("state").asString()
           == "queued")
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto queued = client->submit(sleepSpec(3000));
    ASSERT_TRUE(queued.accepted);

    const auto rejected = client->submit(sleepSpec(3000));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.code, 429);
    EXPECT_FALSE(rejected.reason.empty());
    EXPECT_EQ(server().stats().rejected, 1u);

    // Cancel both admitted requests so teardown is prompt.
    const auto queuedAck = client->cancel(queued.id);
    EXPECT_EQ(queuedAck.at("type").asString(), "cancelled");
    EXPECT_EQ(queuedAck.at("state").asString(), "queued");
    client->cancel(running.id);
    const auto terminal = client->await(running.id);
    EXPECT_EQ(terminal.at("type").asString(), "cancelled");
    server().awaitIdle();
}

TEST_F(ServeTest, ByteBudgetOverflowIsRejectedWith429)
{
    serve::ServerOptions options;
    options.workers = 1;
    options.limits.maxInflightBytes = 2048;
    startServer(options);
    const auto client = connect();

    // suite/1024 plus its frame fits once but not twice under 2048.
    const auto first = client->submit(suiteSpec(1));
    ASSERT_TRUE(first.accepted);
    const auto second = client->submit(suiteSpec(1));
    EXPECT_FALSE(second.accepted);
    EXPECT_EQ(second.code, 429);
    client->await(first.id);
}

TEST_F(ServeTest, MidRunCancelLeavesOtherRequestsUntouched)
{
    serve::ServerOptions options;
    options.workers = 2;
    startServer(options);
    const auto client = connect();

    const auto victim = client->submit(sleepSpec(5000));
    ASSERT_TRUE(victim.accepted);
    const auto bystander = client->submit(sleepSpec(200));
    ASSERT_TRUE(bystander.accepted);

    // Let the victim actually start, then cancel it mid-run.
    while (client->status(victim.id).at("state").asString()
           == "queued")
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto ack = client->cancel(victim.id);
    EXPECT_EQ(ack.at("type").asString(), "status-report");
    EXPECT_EQ(ack.at("state").asString(), "cancelling");

    const auto cancelled = client->await(victim.id);
    EXPECT_EQ(cancelled.at("type").asString(), "cancelled");
    EXPECT_EQ(cancelled.at("state").asString(), "running");

    const auto survived = client->await(bystander.id);
    EXPECT_EQ(survived.at("type").asString(), "result");
    EXPECT_EQ(survived.at("status").asString(), "ok");

    EXPECT_EQ(client->status(victim.id).at("state").asString(),
              "cancelled");
    EXPECT_GE(server().stats().cancelled, 1u);
}

TEST_F(ServeTest, HeartbeatsStreamWhileARequestRuns)
{
    serve::ServerOptions options;
    options.heartbeatMs = 25;
    startServer(options);
    const auto client = connect();

    int heartbeats = 0;
    const auto result = submitAndAwait(
        *client, sleepSpec(300), [&](const util::Json &frame) {
            if (frame.at("type").asString() == "heartbeat")
                ++heartbeats;
        });
    EXPECT_EQ(result.at("type").asString(), "result");
    EXPECT_GE(heartbeats, 2);
}

TEST_F(ServeTest, DrainRejectsNewSubmitsWith503)
{
    startServer({});
    const auto client = connect();
    server().requestDrain();

    const auto rejected = client->submit(sleepSpec(50));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.code, 503);

    const auto status = client->status();
    EXPECT_TRUE(status.at("draining").asBool());
}

TEST_F(ServeTest, ShutdownFrameDrainsAndStopsTheDaemon)
{
    startServer({});
    std::thread daemon([this] { server().run(); });

    const auto client = connect();
    const auto accepted = client->submit(sleepSpec(100));
    ASSERT_TRUE(accepted.accepted);
    client->shutdownServer();

    // run() drains the admitted sleep, then tears the daemon down.
    daemon.join();
    EXPECT_THROW(serve::ServeClient probe(server().endpoint()),
                 std::runtime_error);
}

TEST_F(ServeTest, MalformedFramesGetConnectionScopedErrors)
{
    startServer({});
    const auto client = connect();

    client->sendFrame("this is not json");
    auto error = client->readFrame();
    EXPECT_EQ(error.at("type").asString(), "error");
    EXPECT_EQ(error.at("id").asUint(), 0u);

    client->sendFrame(R"({"type":"submit","op":"bogus"})");
    error = client->readFrame();
    EXPECT_EQ(error.at("type").asString(), "error");

    // The connection survives both and still serves real work.
    const auto result = submitAndAwait(*client, sleepSpec(20));
    EXPECT_EQ(result.at("type").asString(), "result");
}

/** Regression: the accepted frame is sent under the connection's
 *  write mutex before the request becomes runnable, so even a
 *  request that finishes instantly can never put its terminal frame
 *  on the wire first (which would wedge a submit/await client). */
TEST_F(ServeTest, AcceptedFrameAlwaysPrecedesTerminalFrames)
{
    startServer({});
    const auto client = connect();

    for (int i = 0; i < 25; ++i) {
        client->sendFrame(serve::submitFrame(sleepSpec(0)));
        auto frame = client->readFrame();
        ASSERT_EQ(frame.at("type").asString(), "accepted")
            << "iteration " << i;
        const std::uint64_t id = frame.at("id").asUint();
        do {
            frame = client->readFrame();
            ASSERT_EQ(frame.at("id").asUint(), id);
        } while (frame.at("type").asString() != "result");
    }
}

/** Regression: terminal requests are reaped beyond the finished
 *  window, so a long-running daemon's registry stays bounded. */
TEST_F(ServeTest, TerminalRequestsAreReapedBeyondFinishedWindow)
{
    serve::ServerOptions options;
    options.finishedWindow = 2;
    startServer(options);
    const auto client = connect();

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        const auto submission = client->submit(sleepSpec(0));
        ASSERT_TRUE(submission.accepted) << submission.reason;
        const auto result = client->await(submission.id);
        ASSERT_EQ(result.at("type").asString(), "result");
        ids.push_back(submission.id);
    }

    // The oldest terminal request fell out of the window…
    const auto reaped = client->status(ids.front());
    EXPECT_EQ(reaped.at("type").asString(), "error");
    // …while the two newest are still queryable.
    const auto kept = client->status(ids.back());
    ASSERT_EQ(kept.at("type").asString(), "status-report");
    EXPECT_EQ(kept.at("state").asString(), "done");
}

/** The acceptance contract: a serve answer renders to exactly the
 *  bytes `vlpsim suite --format json` prints, jobs 1 and 4. */
TEST_F(ServeTest, WarmReportMatchesCliJsonByteForByte)
{
    startServer({});
    const auto client = connect();

    for (const unsigned jobs : {1u, 4u}) {
        sim::SuiteCompareSpec local;
        local.bytes = 1024;
        local.jobs = jobs;
        auto expected = sim::runSuiteCompare(local);
        sim::stampBuildInfo(expected.report);
        std::ostringstream cliBytes;
        sim::JsonReportSink().write(expected.report, cliBytes);

        const auto result = submitAndAwait(*client, suiteSpec(jobs));
        ASSERT_EQ(result.at("status").asString(), "ok");
        const std::string serveBytes =
            util::toPrettyJson(result.at("report")) + "\n";
        EXPECT_EQ(serveBytes, cliBytes.str()) << "jobs " << jobs;
    }
}

/**
 * Wire compatibility: a protocol-v1 peer from before the trace-suite
 * `readMode` member was retired still sends it. The frame parses (the
 * member is ignored, the protocol version stays 1), and the request
 * runs to the report the same request gets without it.
 */
TEST_F(ServeTest, RetiredReadModeSubmitFieldIsIgnored)
{
    TempDir corpus;
    trace::saveTrace(
        workload::generateTrace(workload::findBenchmark("compress"),
                                workload::InputKind::Profile),
        corpus.path() + "/compress.vbt");
    serve::SubmitSpec spec;
    spec.op = "trace-suite";
    spec.tracesDirectory = corpus.path();
    spec.traceBytes = 1024;
    const std::string frame = serve::submitFrame(spec);
    EXPECT_EQ(frame.find("readMode"), std::string::npos);
    ASSERT_EQ(frame.back(), '}');
    const std::string legacy = frame.substr(0, frame.size() - 1)
        + R"(,"readMode":"stdio"})";
    EXPECT_EQ(serve::submitFrame(
                  serve::parseSubmit(util::Json::parse(legacy))),
              frame);

    startServer({});
    const auto client = connect();
    EXPECT_EQ(client->hello().at("protocolVersion").asUint(), 1u);
    client->sendFrame(legacy);
    const util::Json accepted = client->readFrame();
    ASSERT_EQ(accepted.at("type").asString(), "accepted");
    const util::Json result =
        client->await(accepted.at("id").asUint());
    ASSERT_EQ(result.at("type").asString(), "result");
    ASSERT_EQ(result.at("status").asString(), "ok");

    const util::Json plain = submitAndAwait(*client, spec);
    ASSERT_EQ(plain.at("status").asString(), "ok");
    EXPECT_EQ(util::toCompactJson(result.at("report")),
              util::toCompactJson(plain.at("report")));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Every experiment op in this file runs the synthetic suite; pin
    // the scale before any workload generation so cold runs stay fast
    // and serve/CLI byte comparisons see identical workloads.
    setenv("VLPSIM_SCALE", "0.05", 1);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
