#include "serve/server.hh"

#include <algorithm>
#include <csignal>
#include <map>
#include <sys/socket.h>
#include <utility>

#include "common/logging.hh"
#include "core/experiments.hh"
#include "core/online_pks.hh"
#include "core/pka.hh"
#include "serve/protocol.hh"
#include "silicon/profiler.hh"
#include "silicon/silicon_gpu.hh"
#include "store/file_store.hh"
#include "store/sig_index.hh"
#include "workload/suites.hh"

namespace pka::serve
{

namespace
{

common::TaskError
badInput(std::string message)
{
    common::TaskError e;
    e.kind = common::ErrorKind::kBadInput;
    e.message = std::move(message);
    return e;
}

common::TaskError
drainingErr()
{
    common::TaskError e;
    e.kind = common::ErrorKind::kOverloaded;
    e.message = "daemon is draining: no new campaigns "
                "(in-flight work is finishing)";
    return e;
}

common::Expected<silicon::GpuSpec>
specByName(const std::string &name)
{
    if (name == "volta")
        return silicon::voltaV100();
    if (name == "turing")
        return silicon::turingRtx2060();
    if (name == "ampere")
        return silicon::ampereRtx3070();
    return badInput("unknown GPU '" + name +
                    "' (expected volta, turing or ampere)");
}

/** One in-flight streaming campaign on a connection. */
struct StreamCampaign
{
    pka::workload::Workload workload;
    silicon::GpuSpec spec;
    std::unique_ptr<silicon::SiliconGpu> gpu;
    std::unique_ptr<core::OnlinePks> online;
    LaunchQuota quota;
    CampaignSlot slot;
    unsigned priority = 0;
    bool pkp = false;
    double pkpThreshold = 0.25;
    bool resume = false;
    double minQuorum = 1.0;
    size_t observed = 0; ///< launches fed so far (order enforcement)
};

/** Everything one connection accumulates across messages. */
struct ConnState
{
    Session *session = nullptr;
    std::map<std::string, StreamCampaign> streams;
};

} // namespace

common::Expected<std::unique_ptr<Server>>
Server::start(const ServerOptions &options)
{
    if (options.cacheDir.empty())
        return badInput("serve requires a cache directory");

    std::unique_ptr<Server> s(new Server());
    s->opts_ = options;

    // A client that vanishes mid-RESULT turns the daemon's next send
    // into SIGPIPE; every send already passes MSG_NOSIGNAL, but
    // third-party code (or a future write path) must not be able to
    // kill the process either.
    std::signal(SIGPIPE, SIG_IGN);

    try {
        // One store — and with the similarity tier on, one signature
        // index — shared by every concurrent campaign: a kernel any
        // client ever simulated can answer (exactly or by projection)
        // every other client's near-duplicates, which is the fleet-wide
        // dedup the daemon exists for.
        s->store_ = std::make_unique<store::KernelResultStore>(
            options.cacheDir, options.engine.xcacheTolerance > 0);
    } catch (const common::TaskException &ex) {
        return ex.toError();
    }
    if (options.storeBudgetBytes != 0)
        s->store_->setDiskBudgetBytes(options.storeBudgetBytes);
    if (options.memoBudgetBytes != 0)
        s->store_->setMemoryBudgetBytes(options.memoBudgetBytes);
    sim::EngineOptions eo = options.engine;
    eo.store = s->store_.get();
    if (options.memoBudgetBytes != 0)
        eo.memoBudgetBytes = options.memoBudgetBytes;
    s->sessions_ = std::make_unique<SessionManager>(
        options.cacheDir, options.limits.maxSessions);
    s->scheduler_ = std::make_unique<CampaignScheduler>(options.limits);
    if (eo.auditRate > 0.0 && !eo.auditShed) {
        // Audit work is strictly lower priority than campaign work: at
        // campaign saturation (regular slots full, reserve in use) or
        // during a drain the audit lane sheds instead of competing for
        // simulation throughput. The engine is reset before the
        // scheduler in ~Server, so the capture stays valid for the
        // audit thread's lifetime.
        Server *srv = s.get();
        eo.auditShed = [srv] {
            return srv->draining_.load() ||
                   srv->scheduler_->active() >=
                       srv->scheduler_->limits().maxConcurrentCampaigns;
        };
    }
    s->engine_ = std::make_unique<sim::SimEngine>(eo);

    common::Expected<Listener> l = Listener::open(options.listen);
    if (!l.ok())
        return l.error();
    s->listener_ = std::make_unique<Listener>(std::move(l.value()));
    s->address_ = s->listener_->boundAddress();
    s->acceptThread_ = std::thread([srv = s.get()] { srv->acceptLoop(); });
    return s;
}

Server::~Server()
{
    shutdown();
    wait();
    // The audit lane's shed callback reads the scheduler; tear the
    // engine (which joins the audit thread) down while the scheduler
    // is still alive, not in member-reverse order.
    engine_.reset();
}

uint64_t
Server::simTierHits() const
{
    return engine_ ? engine_->simTierHits() : 0;
}

uint64_t
Server::projectedLaunches() const
{
    return engine_ ? engine_->projectedLaunches() : 0;
}

void
Server::shutdown()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    if (listener_)
        listener_->stop();
    std::lock_guard<std::mutex> lk(conn_m_);
    for (int fd : connFds_)
        ::shutdown(fd, SHUT_RDWR);
}

void
Server::drain()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return;
    if (stopping_.load())
        return; // already force-stopped; nothing left to drain
    if (listener_)
        listener_->stop();
    // Read-half only: an idle connection's readLine returns (EOF-like)
    // and its thread exits, but a campaign mid-simulation keeps its
    // write half so the RESULT still reaches the client.
    std::lock_guard<std::mutex> lk(conn_m_);
    for (int fd : connFds_)
        ::shutdown(fd, SHUT_RD);
}

void
Server::wait()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lk(conn_m_);
        threads.swap(connThreads_);
    }
    for (auto &t : threads)
        if (t.joinable())
            t.join();
}

void
Server::acceptLoop()
{
    for (;;) {
        common::Expected<Fd> conn = listener_->accept();
        if (!conn.ok())
            break; // stopped or the listener died; either way, done
        if (stopping_.load() || draining_.load())
            break;
        if (opts_.ioTimeoutSec > 0)
            setIoTimeouts(conn.value().get(), opts_.ioTimeoutSec,
                          opts_.ioTimeoutSec);
        std::lock_guard<std::mutex> lk(conn_m_);
        connFds_.push_back(conn.value().get());
        connThreads_.emplace_back(
            [this, fd = std::move(conn.value())]() mutable {
                int raw = fd.get();
                handleConnection(std::move(fd));
                std::lock_guard<std::mutex> lk2(conn_m_);
                std::erase(connFds_, raw);
            });
    }
}

namespace
{

/** Best-effort send; a dead peer must not kill the campaign. */
void
sendMsg(int fd, const Message &m)
{
    (void)sendLine(fd, formatMessage(m));
}

void
sendErr(int fd, const std::string &id, const common::TaskError &e)
{
    Message m{"ERR", {}};
    if (!id.empty())
        m.add("id", id);
    m.add("kind", common::errorKindName(e.kind));
    m.add("msg", e.message);
    sendMsg(fd, m);
}

/** Parse the shared campaign fields (gpu/scale/priority/quorum/resume);
 *  returns false after sending ERR. */
bool
parseCampaignCommon(int fd, const Message &req, const std::string &id,
                    silicon::GpuSpec &spec,
                    pka::workload::Workload &workload, unsigned &priority,
                    double &quorum, bool &resume)
{
    common::Expected<silicon::GpuSpec> sp =
        specByName(req.get("gpu", "volta"));
    if (!sp.ok()) {
        sendErr(fd, id, sp.error());
        return false;
    }
    spec = sp.value();

    common::Expected<double> scale = req.getDouble("scale", 0.02);
    if (!scale.ok() || scale.value() <= 0.0 ||
        scale.value() > pka::workload::kMaxMlperfScale) {
        sendErr(fd, id, badInput("bad scale"));
        return false;
    }
    pka::workload::GenOptions g;
    g.mlperfScale = scale.value();
    auto w = pka::workload::buildWorkload(req.get("workload"), g);
    if (!w) {
        sendErr(fd, id,
                badInput("unknown workload '" + req.get("workload") + "'"));
        return false;
    }
    workload = std::move(*w);

    common::Expected<uint64_t> prio = req.getUint("priority", 0, 0, 1000);
    if (!prio.ok()) {
        sendErr(fd, id, prio.error());
        return false;
    }
    priority = static_cast<unsigned>(prio.value());

    common::Expected<double> q = req.getDouble("quorum", 1.0);
    if (!q.ok() || q.value() < 0.0 || q.value() > 1.0) {
        sendErr(fd, id, badInput("bad quorum (expected [0,1])"));
        return false;
    }
    quorum = q.value();
    resume = req.get("resume") == "1";
    return true;
}

} // namespace

void
Server::handleConnection(Fd fd)
{
    LineReader reader(fd.get());
    ConnState conn;

    for (;;) {
        common::Expected<std::string> line = reader.readLine();
        if (!line.ok())
            return; // EOF, shutdown or I/O error: connection over
        common::Expected<Message> parsed = parseMessage(line.value());
        if (!parsed.ok()) {
            sendErr(fd.get(), "", parsed.error());
            continue;
        }
        const Message &req = parsed.value();
        const std::string id = req.get("id");

        if (req.verb == "BYE") {
            sendMsg(fd.get(), Message{"OK", {}});
            return;
        }

        if (req.verb == "SHUTDOWN") {
            sendMsg(fd.get(), Message{"OK", {}});
            // Stops the listener and unblocks every connection (this
            // one included — it returns right here). shutdown() only
            // flips flags and shuts down fds, so calling it from a
            // connection thread cannot deadlock.
            shutdown();
            return;
        }

        if (req.verb == "STATS") {
            Message m{"OK", {}};
            m.addUint("campaigns", scheduler_->active())
                .addUint("peak", scheduler_->peakActive())
                .addUint("rejected", scheduler_->rejected())
                .addUint("shed", scheduler_->shed())
                .addUint("draining", draining_.load() ? 1 : 0)
                .addUint("store_degraded", store_->stats().degraded)
                .addUint("sessions", sessions_->count())
                .addUint("completed", completed_.load())
                .addUint("threads", engine_->threads())
                .addUint("cache_hits", engine_->cacheHits())
                .addUint("store_hits", engine_->storeHits())
                .addUint("cache_misses", engine_->cacheMisses())
                .addUint("sim_hits", engine_->simTierHits())
                .addUint("projected", engine_->projectedLaunches());
            {
                sim::SimEngine::AuditSnapshot au = engine_->auditStats();
                m.addUint("audit_sampled", au.sampled)
                    .addUint("audit_run", au.run)
                    .addUint("audit_violations", au.violations)
                    .addUint("audit_shed", au.shed)
                    .addDouble("audit_max_err", au.maxObservedErr);
                if (const store::SignatureIndex *sig =
                        store_->similarity()) {
                    store::SigIndexStatsSnapshot ss = sig->stats();
                    m.addUint("quarantined_sigs", ss.quarantined)
                        .addDouble("governor_scale", ss.governorMinScale);
                }
            }
            sendMsg(fd.get(), m);
            continue;
        }

        if (req.verb == "HELLO") {
            std::string key = req.get("session");
            if (key.empty()) {
                sendErr(fd.get(), id, badInput("HELLO requires session="));
                continue;
            }
            common::Expected<Session *> s = sessions_->open(key);
            if (!s.ok()) {
                sendErr(fd.get(), id, s.error());
                continue;
            }
            conn.session = s.value();
            Message m{"OK", {}};
            m.add("session", key).addUint("connects",
                                          conn.session->connects);
            sendMsg(fd.get(), m);
            continue;
        }

        // Everything below is campaign work and needs a session (the
        // journals live in the session directory).
        if (conn.session == nullptr) {
            sendErr(fd.get(), id, badInput("HELLO first"));
            continue;
        }

        if (req.verb == "RUN") {
            if (id.empty() || !req.has("workload")) {
                sendErr(fd.get(), id,
                        badInput("RUN requires id= and workload="));
                continue;
            }
            if (draining_.load()) {
                sendErr(fd.get(), id, drainingErr());
                continue;
            }
            // Priority is read before admission so load shedding can
            // honor it (a bad value falls back to 0 here and is
            // rejected properly by parseCampaignCommon below).
            common::Expected<uint64_t> pr =
                req.getUint("priority", 0, 0, 1000);
            common::Expected<bool> admitted = scheduler_->admit(
                id, pr.ok() ? static_cast<unsigned>(pr.value()) : 0);
            if (!admitted.ok()) {
                sendErr(fd.get(), id, admitted.error());
                continue;
            }
            CampaignSlot slot(scheduler_.get());

            silicon::GpuSpec spec;
            pka::workload::Workload w;
            unsigned priority = 0;
            double quorum = 1.0;
            bool resume = false;
            if (!parseCampaignCommon(fd.get(), req, id, spec, w, priority,
                                     quorum, resume))
                continue;

            sim::GpuSimulator simulator(spec);
            core::CampaignCheckpoint cp;
            cp.dir = conn.session->dir;
            cp.resume = resume;
            cp.chunkLaunches = 64; // finer progress grain than batch

            LaunchQuota quota = scheduler_->makeQuota();
            core::CampaignPolicy policy;
            policy.minQuorum = quorum;
            policy.priority = priority;
            // Per-request budget may tighten the daemon-wide SLO but
            // never loosen it (a client cannot opt out of accuracy
            // enforcement the operator configured).
            common::Expected<double> budget =
                req.getDouble("budget", opts_.errorBudget);
            if (!budget.ok() || budget.value() < 0.0) {
                sendErr(fd.get(), id, badInput("bad budget"));
                continue;
            }
            policy.errorBudget = opts_.errorBudget > 0.0
                                     ? (budget.value() > 0.0
                                            ? std::min(budget.value(),
                                                       opts_.errorBudget)
                                            : opts_.errorBudget)
                                     : budget.value();
            policy.admitChunk = [&quota](size_t n) {
                return quota.admit(n);
            };
            int cfd = fd.get();
            policy.onProgress = [cfd, &id](size_t done, size_t total) {
                Message ev{"EVENT", {}};
                ev.add("id", id)
                    .add("kind", "progress")
                    .addUint("done", done)
                    .addUint("total", total);
                sendMsg(cfd, ev);
            };

            core::FullSimResult fs = core::fullSimulate(
                *engine_, simulator, w, &cp, &policy);

            // A quota refusal is a typed rejection, not a result — the
            // journaled prefix stays on disk for a later resume.
            bool rejected = false;
            for (const auto &f : fs.failures)
                if (f.error.kind == common::ErrorKind::kRejected) {
                    sendErr(fd.get(), id, f.error);
                    rejected = true;
                    break;
                }
            if (rejected)
                continue;

            Message m{"RESULT", {}};
            m.add("id", id)
                .addDouble("cycles", fs.cycles)
                .addDouble("insts", fs.threadInsts)
                .addDouble("ipc", fs.ipc())
                .addDouble("dram", fs.dramUtilPct)
                .addUint("launches", w.launches.size())
                .addUint("resumed", fs.resumedLaunches)
                .addUint("failed", fs.failedLaunches)
                .addUint("quarantined", fs.quarantinedKernels)
                .addUint("quorum", fs.quorumMet ? 1 : 0)
                .addUint("cache_hits", fs.cacheHits)
                .addUint("store_hits", fs.storeHits)
                .addUint("cache_misses", fs.cacheMisses)
                .addUint("sim_hits", fs.simTierHits)
                .addUint("projected", fs.projectedLaunches)
                .addDouble("proj_err", fs.projErrBound)
                .addUint("accuracy", fs.accuracyDegraded ? 1 : 0)
                .addDouble("cert_err", fs.certifiedError);
            // Count before sending: a client acting on the RESULT must
            // never observe a stats snapshot that predates it.
            completed_.fetch_add(1);
            sendMsg(fd.get(), m);
            continue;
        }

        if (req.verb == "STREAM") {
            if (id.empty() || !req.has("workload")) {
                sendErr(fd.get(), id,
                        badInput("STREAM requires id= and workload="));
                continue;
            }
            if (conn.streams.count(id) != 0) {
                sendErr(fd.get(), id,
                        badInput("campaign id already streaming"));
                continue;
            }
            if (draining_.load()) {
                sendErr(fd.get(), id, drainingErr());
                continue;
            }
            common::Expected<uint64_t> pr =
                req.getUint("priority", 0, 0, 1000);
            common::Expected<bool> admitted = scheduler_->admit(
                id, pr.ok() ? static_cast<unsigned>(pr.value()) : 0);
            if (!admitted.ok()) {
                sendErr(fd.get(), id, admitted.error());
                continue;
            }
            CampaignSlot slot(scheduler_.get());

            StreamCampaign sc;
            if (!parseCampaignCommon(fd.get(), req, id, sc.spec,
                                     sc.workload, sc.priority,
                                     sc.minQuorum, sc.resume))
                continue;

            core::OnlinePksOptions oo;
            common::Expected<uint64_t> warm =
                req.getUint("warmup", oo.warmupLaunches, 1, 1u << 20);
            common::Expected<uint64_t> resv = req.getUint(
                "reservoir", oo.reservoirCapacity, 1, 1u << 20);
            common::Expected<double> thr =
                req.getDouble("threshold", sc.pkpThreshold);
            common::Expected<uint64_t> shadow =
                req.getUint("shadow", 0, 0, 1u << 20);
            if (!warm.ok() || !resv.ok() || !thr.ok() || !shadow.ok()) {
                sendErr(fd.get(), id, badInput("bad stream options"));
                continue;
            }
            oo.warmupLaunches = warm.value();
            oo.reservoirCapacity = resv.value();
            oo.shadowCheckEvery = shadow.value();
            sc.pkp = req.get("pkp") == "1";
            sc.pkpThreshold = thr.value();
            sc.gpu = std::make_unique<silicon::SiliconGpu>(sc.spec);
            sc.online = std::make_unique<core::OnlinePks>(oo);
            sc.quota = scheduler_->makeQuota();
            sc.slot = std::move(slot);

            Message m{"OK", {}};
            m.add("id", id).addUint("launches", sc.workload.launches.size());
            sendMsg(fd.get(), m);
            conn.streams.emplace(id, std::move(sc));
            continue;
        }

        if (req.verb == "FEED") {
            auto it = conn.streams.find(id);
            if (it == conn.streams.end()) {
                sendErr(fd.get(), id, badInput("no such stream"));
                continue;
            }
            StreamCampaign &sc = it->second;
            common::Expected<uint64_t> from =
                req.getUint("from", sc.observed);
            common::Expected<uint64_t> count = req.getUint("count", 0);
            if (!from.ok() || !count.ok() || count.value() == 0) {
                sendErr(fd.get(), id, badInput("bad FEED range"));
                continue;
            }
            if (from.value() != sc.observed) {
                sendErr(fd.get(), id,
                        badInput("stream must be fed in order (expected "
                                 "from=" +
                                 std::to_string(sc.observed) + ")"));
                continue;
            }
            size_t end = sc.observed + count.value();
            if (end > sc.workload.launches.size()) {
                sendErr(fd.get(), id,
                        badInput("FEED past the end of the stream"));
                continue;
            }
            common::Expected<bool> admit = sc.quota.admit(count.value());
            if (!admit.ok()) {
                // Quota exhausted: the campaign is over, typed.
                common::TaskError e = admit.error();
                conn.streams.erase(it);
                sendErr(fd.get(), id, e);
                continue;
            }

            silicon::DetailedProfiler profiler(*sc.gpu);
            size_t refitsBefore = sc.online->stats().refits;
            bool failed = false;
            for (size_t i = sc.observed; i < end; ++i) {
                common::Expected<bool> ob = sc.online->observe(
                    profiler.profileLaunch(sc.workload, i));
                if (!ob.ok()) {
                    common::TaskError e = ob.error();
                    conn.streams.erase(it);
                    sendErr(fd.get(), id, e);
                    failed = true;
                    break;
                }
            }
            if (failed)
                continue;
            sc.observed = end;
            if (sc.online->stats().refits > refitsBefore) {
                Message ev{"EVENT", {}};
                ev.add("id", id)
                    .add("kind", "refit")
                    .addUint("refits", sc.online->stats().refits);
                sendMsg(fd.get(), ev);
            }
            const core::OnlinePksStats &st = sc.online->stats();
            Message m{"OK", {}};
            m.add("id", id)
                .addUint("observed", st.observed)
                .addUint("groups", st.groups)
                .addUint("drift", st.driftEvents)
                .addUint("resident", st.maxResidentProfiles);
            sendMsg(fd.get(), m);
            continue;
        }

        if (req.verb == "END") {
            auto it = conn.streams.find(id);
            if (it == conn.streams.end()) {
                sendErr(fd.get(), id, badInput("no such stream"));
                continue;
            }
            StreamCampaign &sc = it->second;
            common::Expected<core::OnlinePksSelection> sel =
                sc.online->finish();
            if (!sel.ok()) {
                common::TaskError e = sel.error();
                conn.streams.erase(it);
                sendErr(fd.get(), id, e);
                continue;
            }

            core::SelectionOutcome outcome;
            outcome.groups = sel.value().groups;

            common::Expected<bool> admit =
                sc.quota.admit(outcome.groups.size());
            if (!admit.ok()) {
                common::TaskError e = admit.error();
                conn.streams.erase(it);
                sendErr(fd.get(), id, e);
                continue;
            }

            sim::GpuSimulator simulator(sc.spec);
            core::CampaignCheckpoint cp;
            cp.dir = conn.session->dir;
            cp.resume = sc.resume;
            core::CampaignPolicy policy;
            policy.minQuorum = sc.minQuorum;
            policy.priority = sc.priority;
            core::PkpOptions pkp;
            pkp.threshold = sc.pkpThreshold;
            core::AppProjection proj = core::simulateSelection(
                *engine_, simulator, sc.workload, outcome,
                sc.pkp ? &pkp : nullptr, &cp, &policy);

            const core::OnlinePksSelection &s = sel.value();
            Message m{"RESULT", {}};
            m.add("id", id)
                .addUint("groups", outcome.groups.size())
                .addDouble("projected", proj.projectedCycles)
                .addDouble("ipc", proj.projectedIpc())
                .addDouble("dram", proj.projectedDramUtilPct)
                .addDouble("simulated", proj.simulatedCycles)
                .addDouble("profiled", s.profiledCycles)
                .addDouble("sil_err_pct", s.projectedErrorPct)
                .addUint("observed", s.stats.observed)
                .addUint("classified", s.stats.classified)
                .addUint("drift", s.stats.driftEvents)
                .addUint("refits", s.stats.refits)
                .addUint("shadow_checks", s.stats.shadowChecks)
                .addUint("shadow_div", s.stats.shadowDivergences)
                .addUint("resident", s.stats.maxResidentProfiles)
                .addUint("resident_bytes", s.stats.residentBytes())
                .addUint("failed", proj.failedLaunches)
                .addUint("quorum", proj.quorumMet ? 1 : 0);
            // Release the campaign slot before replying: a client
            // acting on the RESULT must be admissible immediately.
            conn.streams.erase(it);
            completed_.fetch_add(1);
            sendMsg(fd.get(), m);
            continue;
        }

        sendErr(fd.get(), id,
                badInput("unknown verb '" + req.verb + "'"));
    }
}

} // namespace pka::serve
