#include "rules.hh"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>

#include "cfg.hh"
#include "dataflow.hh"

namespace simlint
{

namespace
{

// ---------------------------------------------------------------
// Shared context: structure + CFGs + symbol tables, built once per
// file and handed to every rule.
// ---------------------------------------------------------------

struct Engine
{
    const LexedFile &file;
    Structure st;
    std::vector<Cfg> cfgs;
    /** BoundedFifo-typed variables/members (incl. companion header). */
    SymbolTable fifoSyms;

    explicit Engine(const LexedFile &f, const LexedFile *companion)
        : file(f), st(analyzeStructure(f.tokens)),
          cfgs(buildCfgs(f, st))
    {
        fifoSyms.collect(f.tokens, {"BoundedFifo"});
        if (companion)
            fifoSyms.collect(companion->tokens, {"BoundedFifo"},
                             /*companion=*/true);
    }

    /** CFG whose body contains token @p tok, or nullptr. */
    const Cfg *
    cfgAt(std::size_t tok) const
    {
        for (const Cfg &c : cfgs) {
            if (tok >= c.bodyOpen && tok <= c.bodyClose)
                return &c;
        }
        return nullptr;
    }
};

/**
 * True when the identifier at @p i is a free-function call target:
 * unqualified or std::-qualified (member calls and foreign-namespace
 * qualifications don't count).
 */
bool
isFreeCall(const std::vector<Token> &toks, std::size_t i)
{
    if (i == 0)
        return true;
    const Token &prev = toks[i - 1];
    if (prev.is(".") || prev.is("->"))
        return false;
    if (prev.is("::"))
        return i >= 2 && toks[i - 2].text == "std";
    return true;
}

/**
 * True when token @p i sits directly inside a class body — i.e. a
 * member *declaration* position, where `name(...)` is a signature,
 * not a call.
 */
bool
inClassDeclContext(const Structure &a, std::size_t i)
{
    int s = a.innermost[i];
    return s >= 0 && a.spans[s].kind == Span::Kind::Class;
}

/**
 * Collect names of variables/members declared with the class
 * template @p tmpls: `tmpl<...> [&*const] name`.
 */
std::set<std::string>
templateVarNames(const std::vector<Token> &toks,
                 std::initializer_list<const char *> tmpls)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].isIdent() || !isAnyOf(toks[i], tmpls) ||
            !toks[i + 1].is("<"))
            continue;
        int depth = 0;
        std::size_t j = i + 1;
        for (; j < toks.size(); ++j) {
            if (toks[j].is("<"))
                ++depth;
            else if (toks[j].is(">") && --depth == 0)
                break;
        }
        if (j >= toks.size())
            continue;
        ++j;
        while (j < toks.size() &&
               isAnyOf(toks[j], {"&", "*", "const"}))
            ++j;
        if (j < toks.size() && toks[j].isIdent())
            names.insert(toks[j].text);
    }
    return names;
}

using FindingSink = std::vector<Finding>;

void
addFinding(FindingSink &out, const LexedFile &f, int line,
           const char *rule, std::string msg)
{
    out.push_back(Finding{f.path, line, rule, std::move(msg)});
}

// ---------------------------------------------------------------
// Flow-sensitive rules (CFG + must-dataflow)
// ---------------------------------------------------------------

/**
 * fifo-unguarded-push: BoundedFifo models hardware back-pressure;
 * push() on a full queue panics at runtime. v2 semantics: a
 * full()/space() consult on the same fifo must hold on *every* path
 * from the function entry to the push (guard-dominates-push via
 * forward must-analysis), replacing the v1 "full()/space() appears
 * somewhere in the enclosing function" approximation. Guards inside
 * the surrounding function now correctly cover pushes in nested
 * lambdas, and a guard that only exists on some paths (or only
 * after the push) no longer counts.
 */
void
ruleFifoUnguardedPush(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    for (const Cfg &cfg : e.cfgs) {
        // Map each pushed/consulted fifo name to a fact id lazily.
        std::map<std::string, int> fact;
        auto factOf = [&](const std::string &n) {
            auto it = fact.find(n);
            if (it != fact.end())
                return it->second;
            int id = static_cast<int>(fact.size());
            fact.emplace(n, id);
            return id;
        };

        struct PushSite
        {
            std::size_t tok;
            std::string name;
        };
        std::vector<PushSite> pushes;
        std::vector<std::pair<std::size_t, std::string>> guards;

        for (std::size_t i = cfg.bodyOpen;
             i + 3 <= cfg.bodyClose; ++i) {
            if (!toks[i].isIdent() ||
                !e.fifoSyms.has(toks[i].text))
                continue;
            if (!(toks[i + 1].is(".") || toks[i + 1].is("->")))
                continue;
            if (!toks[i + 3].is("("))
                continue;
            if (toks[i + 2].is("push"))
                pushes.push_back({i, toks[i].text});
            else if (toks[i + 2].is("full") ||
                     toks[i + 2].is("space"))
                guards.push_back({i + 2, toks[i].text});
        }
        if (pushes.empty())
            continue;

        for (const auto &p : pushes)
            factOf(p.name);
        for (const auto &g : guards)
            factOf(g.second);

        ForwardMust fm(cfg, static_cast<int>(fact.size()));
        for (const auto &[tok, name] : guards)
            fm.genAt(tok, fact[name]);
        fm.solve();

        for (const auto &p : pushes) {
            if (fm.holdsBefore(p.tok, fact[p.name]))
                continue;
            addFinding(out, e.file, toks[p.tok].line,
                       "fifo-unguarded-push",
                       "BoundedFifo '" + p.name +
                           "'.push() is reachable without a "
                           "full()/space() back-pressure consult on "
                           "every path (guard must dominate the "
                           "push)");
        }
    }
}

/**
 * wake-not-armed: under the event-driven scheduler, a Clocked
 * component that gains pending work outside tick() must call
 * notifyWake(), or the scheduler may never service it (a hang a
 * polling loop would hide). Trigger: in a file that defines T::tick(),
 * any other member of T that pushes onto a (non-local) BoundedFifo
 * must reach a notifyWake() on every path from the push to the
 * function exit (backward must-analysis — the arm has to
 * post-dominate the enqueue).
 */
void
ruleWakeNotArmed(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    std::set<std::string> clockedScopes;
    for (const Cfg &c : e.cfgs) {
        if (c.fnName == "tick" && !c.scopeName.empty())
            clockedScopes.insert(c.scopeName);
    }
    if (clockedScopes.empty())
        return;

    for (const Cfg &cfg : e.cfgs) {
        if (!clockedScopes.count(cfg.scopeName))
            continue;
        // tick() itself is re-derived by the scheduler after every
        // delivery; constructors run before the scheduler arms.
        if (cfg.fnName == "tick" || cfg.fnName == cfg.scopeName ||
            cfg.fnName.empty())
            continue;

        std::vector<std::size_t> pushes;
        std::vector<std::size_t> arms;
        for (std::size_t i = cfg.bodyOpen;
             i + 3 <= cfg.bodyClose; ++i) {
            if (toks[i].isIdent() && toks[i].is("notifyWake") &&
                i + 1 <= cfg.bodyClose && toks[i + 1].is("(")) {
                arms.push_back(i);
                continue;
            }
            if (!toks[i].isIdent() ||
                !e.fifoSyms.has(toks[i].text))
                continue;
            // A fifo declared inside this very function is local
            // scratch, not scheduler-visible pending work.
            std::size_t decl = e.fifoSyms.declTokOf(toks[i].text);
            if (decl != static_cast<std::size_t>(-1) &&
                decl >= cfg.bodyOpen && decl <= cfg.bodyClose)
                continue;
            if ((toks[i + 1].is(".") || toks[i + 1].is("->")) &&
                toks[i + 2].is("push") && toks[i + 3].is("("))
                pushes.push_back(i);
        }
        if (pushes.empty())
            continue;

        BackwardMust bm(cfg, 1);
        for (std::size_t a : arms)
            bm.genAt(a, 0);
        bm.solve();

        for (std::size_t p : pushes) {
            if (bm.holdsAfter(p, 0))
                continue;
            addFinding(out, e.file, toks[p].line, "wake-not-armed",
                       "'" + cfg.scopeName + "::" + cfg.fnName +
                           "' enqueues pending work outside tick() "
                           "but notifyWake() does not post-dominate "
                           "the push; the event-driven scheduler "
                           "may never service it");
        }
    }
}

/**
 * device-zero-hardcode: code that receives a DeviceId but indexes a
 * per-device resource with literal 0 silently reads device 0's
 * state for every shard. The literal also counts when folded
 * through a local `const`/`constexpr` variable in the same function
 * (`const DeviceId primary = 0; ... memory(primary)`): naming the
 * zero does not un-hardcode it. Flow exception: a dominating
 * comparison of the DeviceId parameter against a literal (e.g.
 * `if (dev == 0)`) marks deliberate device-0 special-casing.
 */
void
ruleDeviceZeroHardcode(const Engine &e, FindingSink &out)
{
    static const std::set<std::string> accessors = {
        "gpuDevice", "scuDevice",        "memory",
        "addressSpace", "activitySnapshot", "scuSection",
        "fragment",  "drain",            "link",
        "canSend"};

    const auto &toks = e.file.tokens;
    for (const Cfg &cfg : e.cfgs) {
        if (cfg.sigClose <= cfg.sigOpen)
            continue;
        // DeviceId-typed parameters of this function.
        std::set<std::string> devParams;
        for (std::size_t i = cfg.sigOpen + 1; i < cfg.sigClose;
             ++i) {
            if (!toks[i].is("DeviceId"))
                continue;
            std::size_t j = i + 1;
            while (j < cfg.sigClose &&
                   isAnyOf(toks[j], {"&", "*", "const"}))
                ++j;
            if (j < cfg.sigClose && toks[j].isIdent())
                devParams.insert(toks[j].text);
        }
        if (devParams.empty())
            continue;

        // Local const/constexpr variables initialized to exactly
        // the literal 0 (`const DeviceId d = 0;` / `{0}`): uses of
        // such a name are zeros the compiler folds, so the rule
        // treats them as the literal itself.
        std::set<std::string> zeroConsts;
        for (std::size_t i = cfg.bodyOpen; i + 3 <= cfg.bodyClose;
             ++i) {
            if (!toks[i].is("const") && !toks[i].is("constexpr"))
                continue;
            std::string name;
            for (std::size_t j = i + 1; j + 2 <= cfg.bodyClose;
                 ++j) {
                if (toks[j].is(";"))
                    break;
                if ((toks[j].is("=") && toks[j + 1].is("0") &&
                     toks[j + 2].is(";")) ||
                    (toks[j].is("{") && toks[j + 1].is("0") &&
                     toks[j + 2].is("}"))) {
                    if (!name.empty())
                        zeroConsts.insert(name);
                    break;
                }
                if (toks[j].isIdent())
                    name = toks[j].text;
            }
        }

        // Fact 0: the DeviceId was explicitly compared against a
        // literal (deliberate special-casing).
        ForwardMust fm(cfg, 1);
        for (std::size_t i = cfg.bodyOpen; i + 2 <= cfg.bodyClose;
             ++i) {
            bool cmp = false;
            if (toks[i].isIdent() && devParams.count(toks[i].text) &&
                (toks[i + 1].is("=") || toks[i + 1].is("!")) &&
                toks[i + 2].is("="))
                cmp = true;
            if (toks[i].kind == Token::Kind::Number &&
                toks[i + 1].is("=") && toks[i + 2].is("=") &&
                i + 3 <= cfg.bodyClose && toks[i + 3].isIdent() &&
                devParams.count(toks[i + 3].text))
                cmp = true;
            if (cmp)
                fm.genAt(i, 0);
        }
        fm.solve();

        for (std::size_t i = cfg.bodyOpen; i + 1 <= cfg.bodyClose;
             ++i) {
            if (!toks[i].isIdent() || !accessors.count(toks[i].text))
                continue;
            if (!toks[i + 1].is("("))
                continue;
            std::size_t close = matchParenFwd(toks, i + 1);
            if (close == static_cast<std::size_t>(-1))
                continue;
            // A literal 0 — or a const-folded local zero constant —
            // as a complete top-level argument.
            int depth = 0;
            bool zeroArg = false;
            std::string folded;
            for (std::size_t k = i + 1; k <= close && !zeroArg;
                 ++k) {
                if (toks[k].is("("))
                    ++depth;
                else if (toks[k].is(")"))
                    --depth;
                else if (depth == 1 &&
                         (toks[k].is("0") ||
                          (toks[k].isIdent() &&
                           zeroConsts.count(toks[k].text))) &&
                         (toks[k - 1].is("(") ||
                          toks[k - 1].is(",")) &&
                         (toks[k + 1].is(")") ||
                          toks[k + 1].is(","))) {
                    zeroArg = true;
                    if (!toks[k].is("0"))
                        folded = toks[k].text;
                }
            }
            if (!zeroArg)
                continue;
            if (fm.holdsBefore(i, 0))
                continue; // dominated by an explicit device check
            const std::string what =
                folded.empty()
                    ? "'" + toks[i].text + "(0)' hardcodes device 0"
                    : "'" + toks[i].text + "(" + folded +
                          ")' hardcodes device 0 through local "
                          "constant '" +
                          folded + "'";
            addFinding(out, e.file, toks[i].line,
                       "device-zero-hardcode",
                       what +
                           " inside code that receives a DeviceId; "
                           "index with the parameter (or guard "
                           "with an explicit device comparison)");
        }
    }
}

/**
 * icn-credit-leak: queue completion paths must return the credit —
 * once a function both inspects (front()/top()) and pops a queue, an
 * inspect that *starts* consuming (a pop is reachable on some path)
 * but does not finish on every path (pop does not post-dominate)
 * leaves the element enqueued on the other paths: the message is
 * re-delivered next tick and the link slot (its flow-control credit)
 * is never freed. Two exemptions: a loop-header inspection
 * (`while (!q.empty() && q.front() <= now)`) is the scan idiom, and
 * an inspect from which no pop is reachable at all is a pure peek
 * (e.g. reading the earliest wake tick after a drain loop) — the
 * hazard is the may/must disagreement, not reading per se.
 */
/**
 * True when some pop site in @p pops is reachable from the inspect
 * at token @p s: later in the same block, or in any block reachable
 * through successor edges (cycles included — re-reaching the
 * inspect's own block makes its earlier pops reachable too).
 */
bool
popMayFollow(const Cfg &cfg, const std::vector<std::size_t> &pops,
             std::size_t s)
{
    int b = cfg.blockAt(s);
    if (b < 0)
        return false;
    for (std::size_t p : pops) {
        if (cfg.blockAt(p) == b && p > s)
            return true;
    }
    std::vector<bool> seen(cfg.blocks.size(), false);
    std::vector<int> stack(cfg.blocks[b].succs.begin(),
                           cfg.blocks[b].succs.end());
    while (!stack.empty()) {
        int cur = stack.back();
        stack.pop_back();
        if (seen[cur])
            continue;
        seen[cur] = true;
        for (std::size_t p : pops) {
            if (cfg.blockAt(p) == cur)
                return true;
        }
        for (int nxt : cfg.blocks[cur].succs)
            stack.push_back(nxt);
    }
    return false;
}

void
ruleIcnCreditLeak(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    for (const Cfg &cfg : e.cfgs) {
        std::map<std::string, std::vector<std::size_t>> fronts,
            pops;
        for (std::size_t i = cfg.bodyOpen + 1;
             i + 2 <= cfg.bodyClose; ++i) {
            if (!toks[i].isIdent())
                continue;
            if (!(toks[i + 1].is(".") || toks[i + 1].is("->")))
                continue;
            if (!toks[i + 2].isIdent() ||
                i + 3 > cfg.bodyClose || !toks[i + 3].is("("))
                continue;
            if (toks[i + 2].is("front") || toks[i + 2].is("top"))
                fronts[toks[i].text].push_back(i + 2);
            else if (toks[i + 2].is("pop"))
                pops[toks[i].text].push_back(i + 2);
        }

        for (const auto &[name, sites] : fronts) {
            auto pit = pops.find(name);
            if (pit == pops.end())
                continue; // inspect-only (peek accessors) is fine
            BackwardMust bm(cfg, 1);
            for (std::size_t p : pit->second)
                bm.genAt(p, 0);
            bm.solve();
            for (std::size_t s : sites) {
                int b = cfg.blockAt(s);
                if (b >= 0 && cfg.isLoopHeader(b))
                    continue; // scan guard in a loop condition
                if (!popMayFollow(cfg, pit->second, s))
                    continue; // pure peek: nothing started consuming
                if (bm.holdsAfter(s, 0))
                    continue;
                addFinding(out, e.file, toks[s].line,
                           "icn-credit-leak",
                           "'" + name +
                               "' is inspected here but pop() does "
                               "not post-dominate the access: on "
                               "some path the element stays queued "
                               "and its credit is never returned");
            }
        }
    }
}

// ---------------------------------------------------------------
// Token-pattern rules (v1, ported onto the shared structure layer)
// ---------------------------------------------------------------

/**
 * nondeterminism: wall-clock and OS entropy sources make runs
 * irreproducible; all simulator randomness must flow through
 * common/rng.hh and all time through the simulated clock.
 */
void
ruleNondeterminism(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    const Structure &a = e.st;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!t.isIdent())
            continue;
        if (t.is("random_device")) {
            addFinding(out, e.file, t.line, "nondeterminism",
                       "std::random_device draws OS entropy; seed a "
                       "deterministic scusim::Rng instead");
            continue;
        }
        bool call = i + 1 < toks.size() && toks[i + 1].is("(") &&
                    isFreeCall(toks, i) &&
                    !inClassDeclContext(a, i);
        if (call && isAnyOf(t, {"rand", "srand", "rand_r",
                                "drand48"})) {
            addFinding(out, e.file, t.line, "nondeterminism",
                       "'" + t.text +
                           "()' is not reproducible across "
                           "platforms; use scusim::Rng");
            continue;
        }
        if (call && t.is("time")) {
            addFinding(out, e.file, t.line, "nondeterminism",
                       "'time()' reads the wall clock; simulated "
                       "time must come from Simulation::now()");
            continue;
        }
        if (isAnyOf(t, {"steady_clock", "system_clock",
                        "high_resolution_clock"}) &&
            i + 2 < toks.size() && toks[i + 1].is("::") &&
            toks[i + 2].is("now")) {
            addFinding(out, e.file, t.line, "nondeterminism",
                       "'" + t.text +
                           "::now()' reads the wall clock; results "
                           "derived from it are not reproducible");
        }
    }
}

/**
 * unordered-iteration: iterating an unordered container feeds its
 * unspecified bucket order into whatever the loop computes — stats,
 * event order, emitted elements. Sim code must iterate ordered
 * containers (or sort first).
 */
void
ruleUnorderedIteration(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    auto names = templateVarNames(
        toks, {"unordered_map", "unordered_set", "unordered_multimap",
               "unordered_multiset"});
    if (names.empty())
        return;

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        // name.begin() / name->begin()
        if (toks[i].isIdent() && names.count(toks[i].text) &&
            i + 3 < toks.size() &&
            (toks[i + 1].is(".") || toks[i + 1].is("->")) &&
            toks[i + 2].is("begin") && toks[i + 3].is("(")) {
            addFinding(out, e.file, toks[i].line,
                       "unordered-iteration",
                       "iteration over unordered container '" +
                           toks[i].text +
                           "': bucket order is unspecified and "
                           "nondeterministic across libraries");
        }
        // for ( ... : name )
        if (!toks[i].is("for") || !toks[i + 1].is("("))
            continue;
        std::size_t close = matchParenFwd(toks, i + 1);
        if (close == static_cast<std::size_t>(-1))
            continue;
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
            if (toks[j].is("("))
                ++depth;
            else if (toks[j].is(")"))
                --depth;
            else if (toks[j].is(":") && depth == 1) {
                colon = j;
                break;
            }
        }
        if (!colon)
            continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (toks[j].isIdent() && names.count(toks[j].text)) {
                addFinding(
                    out, e.file, toks[i].line, "unordered-iteration",
                    "range-for over unordered container '" +
                        toks[j].text +
                        "': bucket order is unspecified and feeds "
                        "the loop's results");
                break;
            }
        }
    }
}

/**
 * direct-output: simulator library code must report through
 * common/logging (levelled, mutex-serialized for the parallel
 * executor); raw stdio interleaves across worker threads and cannot
 * be filtered.
 */
void
ruleDirectOutput(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    const Structure &a = e.st;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!t.isIdent())
            continue;
        if (isAnyOf(t, {"cout", "cerr", "clog"})) {
            bool qualifiedStd =
                i >= 2 && toks[i - 1].is("::") &&
                toks[i - 2].text == "std";
            bool bare = i == 0 || (!toks[i - 1].is("::") &&
                                   !toks[i - 1].is(".") &&
                                   !toks[i - 1].is("->"));
            if (qualifiedStd || bare) {
                addFinding(out, e.file, t.line, "direct-output",
                           "std::" + t.text +
                               " bypasses common/logging; use "
                               "inform()/warn() or take an "
                               "std::ostream parameter");
            }
            continue;
        }
        if (i + 1 < toks.size() && toks[i + 1].is("(") &&
            isFreeCall(toks, i) && !inClassDeclContext(a, i) &&
            isAnyOf(t, {"printf", "fprintf", "vprintf", "vfprintf",
                        "puts", "putchar", "fputs"})) {
            addFinding(out, e.file, t.line, "direct-output",
                       "'" + t.text +
                           "()' bypasses common/logging (not "
                           "levelled, not serialized across "
                           "executor threads)");
        }
    }
}

/**
 * missing-override: the simulator's polymorphic contracts (Clocked,
 * MemLevel, StatBase, HashTableBase) are how components plug into
 * the timing loop; a signature drift silently unhooks a component.
 * Known interface methods in derived classes must say 'override'.
 */
void
ruleMissingOverride(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    const Structure &a = e.st;
    for (std::size_t si = 0; si < a.spans.size(); ++si) {
        const Span &cls = a.spans[si];
        if (cls.kind != Span::Kind::Class || !cls.hasBaseList)
            continue;
        for (std::size_t i = cls.open + 1;
             i < cls.close && i + 1 < toks.size(); ++i) {
            if (a.innermost[i] != static_cast<int>(si))
                continue;
            const Token &t = toks[i];
            if (!t.isIdent() ||
                !isAnyOf(t, {"tick", "busy", "nextWakeTick",
                             "access", "dump", "reset"}))
                continue;
            if (!toks[i + 1].is("("))
                continue;
            if (i > 0 && (toks[i - 1].is(".") ||
                          toks[i - 1].is("->") ||
                          toks[i - 1].is("::") ||
                          toks[i - 1].is("=") ||
                          toks[i - 1].is("(") ||
                          toks[i - 1].is(",") ||
                          toks[i - 1].is("return")))
                continue;
            std::size_t close = matchParenFwd(toks, i + 1);
            if (close == static_cast<std::size_t>(-1))
                continue;
            bool hasOverride = false;
            std::size_t j = close + 1;
            for (; j < toks.size(); ++j) {
                if (toks[j].is(";") || toks[j].is("{"))
                    break;
                if (toks[j].is("override") || toks[j].is("final"))
                    hasOverride = true;
            }
            if (!hasOverride) {
                addFinding(out, e.file, t.line, "missing-override",
                           "'" + t.text +
                               "()' matches a simulator interface "
                               "method in a derived class but is "
                               "not marked 'override'");
            }
        }
    }
}

/**
 * raw-stat-counter: a mutable arithmetic variable at namespace/file
 * scope is exactly how ad-hoc statistics escape the StatGroup
 * registry — it survives across runs, breaks the executor's per-run
 * isolation and memoization, and never shows up in stats dumps.
 */
void
ruleRawStatCounter(const Engine &e, FindingSink &out)
{
    static const std::set<std::string> typeSet = {
        "int",      "unsigned", "long",     "short",    "float",
        "double",   "bool",     "char",     "size_t",   "int8_t",
        "int16_t",  "int32_t",  "int64_t",  "uint8_t",  "uint16_t",
        "uint32_t", "uint64_t", "intptr_t", "uintptr_t", "Tick",
        "Addr",     "NodeId",   "EdgeId",   "Weight"};

    const auto &toks = e.file.tokens;
    const Structure &a = e.st;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].isIdent() || !typeSet.count(toks[i].text))
            continue;
        if (a.parenDepth[i] != 0)
            continue;
        int span = a.innermost[i];
        if (span >= 0 &&
            a.spans[span].kind != Span::Kind::Namespace)
            continue;
        // Reject if the declaration head (back to the previous
        // ';' / '{' / '}') contains a disqualifier.
        bool disqualified = false;
        for (std::size_t j = i; j-- > 0;) {
            if (isAnyOf(toks[j], {";", "{", "}"}))
                break;
            if (isAnyOf(toks[j],
                        {"const", "constexpr", "constinit", "extern",
                         "using", "typedef", "template", "friend",
                         "operator", "thread_local", "enum",
                         "class", "struct"})) {
                disqualified = true;
                break;
            }
        }
        if (disqualified)
            continue;
        // Skip over the rest of the type tokens to the declarator.
        std::size_t j = i;
        while (j < toks.size() && toks[j].isIdent() &&
               typeSet.count(toks[j].text))
            ++j;
        while (j < toks.size() && isAnyOf(toks[j], {"*", "&"}))
            ++j;
        if (j >= toks.size() || !toks[j].isIdent())
            continue;
        if (isAnyOf(toks[j], {"const", "constexpr"}))
            continue;
        std::size_t after = j + 1;
        if (after >= toks.size())
            continue;
        if (toks[after].is("=") || toks[after].is(";") ||
            toks[after].is("{") || toks[after].is("[")) {
            addFinding(out, e.file, toks[j].line, "raw-stat-counter",
                       "mutable namespace-scope counter '" +
                           toks[j].text +
                           "' bypasses the Stat registry and "
                           "survives across runs (breaks per-run "
                           "isolation); use a stats::Scalar owned "
                           "by a component");
            i = after;
        }
    }
}

/**
 * stat-registered-after-start: a stat constructed as a function
 * local registers with its StatGroup only when that function runs —
 * typically after the simulation started — so it misses dumps and
 * resets that already happened and silently unregisters again on
 * scope exit. Stats must be members, constructed while the component
 * tree is built (member declarations and mem-init lists don't match
 * the local-declaration shape this rule looks for).
 */
void
ruleStatRegisteredAfterStart(const Engine &e, FindingSink &out)
{
    static const std::set<std::string> statTypes = {
        "Scalar", "Formula", "Distribution", "Timeseries"};

    const auto &toks = e.file.tokens;
    const Structure &a = e.st;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!toks[i].isIdent() || !statTypes.count(toks[i].text))
            continue;
        // Local *declaration* shape: `Scalar name(...)`. Temporaries
        // (`Scalar(...)`), members (`Scalar name;`), template args
        // (`make_unique<Timeseries>(...)`) and parameters all differ.
        if (!toks[i + 1].isIdent() || !toks[i + 2].is("("))
            continue;
        // stats:: / scusim::stats:: qualification is fine; any other
        // namespace's Scalar is not ours.
        if (i >= 2 && toks[i - 1].is("::") &&
            toks[i - 2].text != "stats")
            continue;
        if (a.parenDepth[i] != 0)
            continue;
        if (a.enclosingFunction(i) < 0)
            continue;
        addFinding(out, e.file, toks[i].line,
                   "stat-registered-after-start",
                   "stat '" + toks[i + 1].text +
                       "' constructed inside a function body "
                       "registers with its StatGroup after the "
                       "simulation may have started (and "
                       "unregisters at scope exit); make it a "
                       "member built with the component tree");
    }
}

/**
 * swallowed-sim-error: a `catch (...)` handler also catches SimError,
 * the typed failure per-run failure isolation depends on — a handler
 * that neither rethrows nor mentions the failure taxonomy turns a
 * classified panic/deadlock/runaway into a silently "successful" run.
 */
void
ruleSwallowedSimError(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    for (std::size_t i = 0; i + 5 < toks.size(); ++i) {
        // catch ( . . . )  — '...' lexes as three '.' tokens.
        if (!toks[i].is("catch") || !toks[i + 1].is("(") ||
            !toks[i + 2].is(".") || !toks[i + 3].is(".") ||
            !toks[i + 4].is(".") || !toks[i + 5].is(")"))
            continue;
        std::size_t open = i + 6;
        if (open >= toks.size() || !toks[open].is("{"))
            continue;
        // Scan the handler body for evidence the failure survives:
        // a rethrow, or the SimError / FailureKind types being
        // consulted to record what happened.
        int depth = 0;
        bool handled = false;
        std::size_t j = open;
        for (; j < toks.size(); ++j) {
            if (toks[j].is("{"))
                ++depth;
            else if (toks[j].is("}") && --depth == 0)
                break;
            else if (toks[j].is("throw") || toks[j].is("SimError") ||
                     toks[j].is("FailureKind"))
                handled = true;
        }
        if (!handled) {
            addFinding(out, e.file, toks[i].line,
                       "swallowed-sim-error",
                       "catch (...) swallows SimError without "
                       "recording a FailureKind; rethrow, or catch "
                       "SimError first and classify the failure");
        }
        i = j;
    }
}

/**
 * tick-every-cycle: a Clocked component's nextWakeTick() is the
 * event-driven scheduler's only lever — a body that unconditionally
 * answers "the very next tick" (no branch, never tickNever, returns
 * an expression built with '+') degrades the whole simulation back
 * to per-tick polling of that component. Wakes must be derived from
 * real component state: a cached earliest-wake tick, or tickNever
 * when idle.
 */
void
ruleTickEveryCycle(const Engine &e, FindingSink &out)
{
    const auto &toks = e.file.tokens;
    const Structure &a = e.st;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].isIdent() || toks[i].text != "nextWakeTick" ||
            !toks[i + 1].is("("))
            continue;
        // Definition context only: inline in a class that derives
        // from something (the Clocked pattern), or an out-of-line
        // qualified member (`Engine::nextWakeTick`). Calls are
        // preceded by '.' / '->' and never grow a body anyway.
        bool inDerivedClass = false;
        const int si = a.innermost[i];
        if (si >= 0 &&
            a.spans[si].kind == Span::Kind::Class &&
            a.spans[si].hasBaseList)
            inDerivedClass = true;
        const bool qualified =
            i >= 2 && toks[i - 1].is("::") && toks[i - 2].isIdent();
        if (!inDerivedClass && !qualified)
            continue;
        const std::size_t close = matchParenFwd(toks, i + 1);
        if (close == static_cast<std::size_t>(-1))
            continue;
        // Skip trailing qualifiers to the body; a ';' first means a
        // declaration (or a call expression) — nothing to inspect.
        std::size_t open = close + 1;
        while (open < toks.size() &&
               isAnyOf(toks[open],
                       {"const", "override", "final", "noexcept"}))
            ++open;
        if (open >= toks.size() || !toks[open].is("{"))
            continue;
        // The body unconditionally schedules the next tick when it
        // never branches, never mentions tickNever, and its return
        // value is additive ("now + 1" and friends).
        int depth = 0;
        bool conditional = false;
        bool additiveReturn = false;
        bool inReturn = false;
        std::size_t j = open;
        for (; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (t.is("{"))
                ++depth;
            else if (t.is("}") && --depth == 0)
                break;
            else if (isAnyOf(t, {"if", "switch", "while", "for"}) ||
                     t.is("?") || t.is("tickNever"))
                conditional = true;
            else if (t.is("return"))
                inReturn = true;
            else if (t.is(";"))
                inReturn = false;
            else if (inReturn &&
                     t.text.find('+') != std::string::npos)
                additiveReturn = true;
        }
        if (!conditional && additiveReturn) {
            addFinding(out, e.file, toks[i].line, "tick-every-cycle",
                       "nextWakeTick() unconditionally returns the "
                       "next tick, degrading the event-driven "
                       "scheduler to per-tick polling of this "
                       "component; derive the wake from component "
                       "state (cache the earliest wake, return "
                       "tickNever when idle)");
        }
        i = j;
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleRegistry()
{
    static const std::vector<RuleInfo> registry = {
        {"fifo-unguarded-push",
         "BoundedFifo::push() not dominated by a full()/space() "
         "back-pressure consult on the same fifo (flow-sensitive)",
         false},
        {"wake-not-armed",
         "Clocked component enqueues pending work outside tick() on "
         "a path where notifyWake() does not post-dominate the push "
         "(event-driven scheduler may never service it)",
         false},
        {"device-zero-hardcode",
         "per-device resource indexed with literal 0 inside code "
         "that receives a DeviceId (shard reads device 0's state)",
         false},
        {"icn-credit-leak",
         "queue front()/top() not post-dominated by pop() in a "
         "function that pops: element stays queued, its flow-control "
         "credit is never returned",
         false},
        {"nondeterminism",
         "wall-clock / OS-entropy source in simulation code "
         "(random_device, rand, time, *_clock::now)",
         false},
        {"unordered-iteration",
         "iteration over an unordered container (bucket order is "
         "unspecified and feeds results)",
         false},
        {"direct-output",
         "raw stdout/stderr (printf, std::cout, ...) bypassing "
         "common/logging in simulator library code",
         true},
        {"missing-override",
         "simulator interface method (tick/busy/access/dump/...) "
         "redeclared in a derived class without 'override'",
         false},
        {"raw-stat-counter",
         "mutable namespace-scope arithmetic variable in library "
         "code (ad-hoc stat escaping the Stat registry)",
         true},
        {"swallowed-sim-error",
         "catch (...) handler that neither rethrows nor records a "
         "FailureKind (silently discards classified SimError "
         "failures)",
         true},
        {"stat-registered-after-start",
         "stats::Scalar/Formula/Distribution/Timeseries constructed "
         "as a function local (registers with its StatGroup after "
         "the simulation started, unregisters at scope exit)",
         true},
        {"tick-every-cycle",
         "nextWakeTick() body that unconditionally returns the next "
         "tick (no branch, no tickNever) — degrades the event-driven "
         "scheduler to per-tick polling of the component",
         false},
        {"unused-suppression",
         "simlint: allow(...) directive that suppresses no finding "
         "(stale after a fix or a rule improvement; remove it)",
         false},
    };
    return registry;
}

RuleResults
runRules(const LexedFile &file, bool treatAsSrc,
         const LexedFile *companion)
{
    Engine e(file, companion);
    bool inSrc = treatAsSrc || file.path.rfind("src/", 0) == 0;

    std::vector<Finding> found;
    ruleFifoUnguardedPush(e, found);
    ruleWakeNotArmed(e, found);
    ruleDeviceZeroHardcode(e, found);
    ruleIcnCreditLeak(e, found);
    ruleNondeterminism(e, found);
    ruleUnorderedIteration(e, found);
    ruleMissingOverride(e, found);
    ruleTickEveryCycle(e, found);
    if (inSrc) {
        ruleDirectOutput(e, found);
        ruleRawStatCounter(e, found);
        ruleSwallowedSimError(e, found);
        ruleStatRegisteredAfterStart(e, found);
    }

    RuleResults res;
    std::vector<bool> allowUsed(file.directives.size(), false);
    for (auto &fi : found) {
        bool suppressed = false;
        for (std::size_t d = 0; d < file.directives.size(); ++d) {
            const Directive &dir = file.directives[d];
            if (dir.kind != Directive::Kind::Allow ||
                dir.rule != fi.rule)
                continue;
            if (dir.line == fi.line || dir.line == fi.line - 1) {
                allowUsed[d] = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            res.findings.push_back(std::move(fi));
    }
    for (std::size_t d = 0; d < file.directives.size(); ++d) {
        const Directive &dir = file.directives[d];
        if (dir.kind == Directive::Kind::Allow && !allowUsed[d])
            res.unusedAllows.push_back(dir);
    }

    std::sort(res.findings.begin(), res.findings.end(),
              [](const Finding &x, const Finding &y) {
                  if (x.line != y.line)
                      return x.line < y.line;
                  return x.rule < y.rule;
              });
    return res;
}

} // namespace simlint
