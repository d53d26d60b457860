package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"swapservellm/internal/chaos"
	"swapservellm/internal/config"
	"swapservellm/internal/core"
	"swapservellm/internal/cudackpt"
	"swapservellm/internal/engine"
	"swapservellm/internal/invariant"
	"swapservellm/internal/openai"
	"swapservellm/internal/proxy/ir"
	"swapservellm/internal/simclock"

	"swapservellm/internal/cluster"
)

// ChaosRow summarizes one chaos soak trial: a seeded fault schedule
// replayed against a live deployment while the harness measures how the
// system absorbs each fault (recovery latency of the retry that follows
// a failed request) and then audits the system-wide invariants at
// quiescence. Violations must be zero on every seed; a non-zero count
// is a bug reproducible from the seed alone.
type ChaosRow struct {
	Scope          string // "node" (single server) or "cluster" (gateway + 2 nodes)
	Seed           int64
	Requests       int
	Failed         int // requests whose first attempt returned an error
	Recovered      int // failed requests whose bounded retry succeeded
	Unrecovered    int
	FaultsInjected int
	RecoveryP50Sec float64 // simulated seconds from first failure to recovery
	RecoveryMaxSec float64
	Violations     int
	ViolationText  string
}

// NodeChaosRules is the default single-node soak schedule: moderate
// error probabilities on every checkpoint/cgroup transition and on
// individual transfer chunks, a lossy PCIe link, and a degraded disk.
// The seed is swept per trial.
const NodeChaosRules = "cudackpt.lock: p=0.08" +
	"; cudackpt.checkpoint: p=0.1" +
	"; cudackpt.restore: p=0.12" +
	"; cudackpt.chunk: p=0.02" +
	"; cudackpt.pcie: p=0.25 delay=25ms" +
	"; cgroup.freeze: p=0.08" +
	"; cgroup.thaw: p=0.08" +
	"; storage.read: p=0.15 delay=40ms"

// ClusterChaosRules is the default cluster soak schedule: heartbeat
// loss (node crash/restart), proxy-level connection failures,
// mid-stream cuts (the cluster.sse site severs the relayed canonical
// stream whatever the client framing), front-door translation faults,
// and degraded response-cache lookups.
const ClusterChaosRules = "cluster.heartbeat: p=0.15" +
	"; cluster.proxy: p=0.1" +
	"; cluster.sse: p=0.04" +
	"; proxy.translate: p=0.05" +
	"; proxy.cache: p=0.25"

// SchedChaosRules is the predictive-scheduling soak schedule: forced
// admission mispredictions (sched.admit inverts each decision),
// suppressed pre-warms (sched.prefetch swallows the restore the
// predictor asked for), and inverted eviction verdicts (sched.evict
// flips the reaper's keep/evict call).
const SchedChaosRules = "sched.admit: p=0.25" +
	"; sched.prefetch: p=0.5" +
	"; sched.evict: p=0.3"

// chaosSoakRequests is the workload length of one trial.
const chaosSoakRequests = 16

// ChaosSoak runs one seeded single-node trial: two vLLM backends that
// cannot share the GPU (every alternation preempts, maximizing
// checkpoint/restore traffic) serve a sequential workload while the
// schedule injects faults. Failed requests are retried a bounded number
// of times; at quiescence the full invariant suite is checked.
func ChaosSoak(seed int64) (ChaosRow, error) {
	cfg := config.Default()
	cfg.Global.ResponseTimeoutSec = 0
	cfg.Global.KeepAliveSec = 0
	cfg.Global.GPUMonitorSec = 0
	cfg.Global.Prefetch = false
	modelsUsed := []string{"llama3.2:1b-fp16", "llama3.2:3b-fp16"}
	for _, m := range modelsUsed {
		cfg.Models = append(cfg.Models, config.Model{Name: m, Engine: "vllm"})
	}

	tr := chaos.NewTrace()
	s, stop, err := startServer(cfg, core.Options{Trace: tr})
	if err != nil {
		return ChaosRow{}, err
	}
	defer stop()

	// Arm the injector only after startup so the schedule measures fault
	// tolerance of the serving path, not of initialization, and so seed
	// occurrence indices start at the same point on every run.
	inj := chaos.NewInjector(chaos.MustParsePlan(NodeChaosRules).WithSeed(seed))
	s.Driver().SetChaos(inj)
	s.Freezer().SetChaos(inj)
	s.Store().SetChaos(inj)

	// Audit the driver's accounting at every committed transfer chunk,
	// not just at quiescence: the conservation and pledge invariants
	// must hold mid-pipeline even while faults abort and roll back
	// transfers. Violations fold into the trial's report.
	var rep invariant.Report
	var repMu sync.Mutex
	s.Driver().OnChunk(func(cudackpt.ChunkEvent) {
		var chunkRep invariant.Report
		invariant.CheckDriver(&chunkRep, s.Driver(), s.Topology())
		if !chunkRep.Ok() {
			repMu.Lock()
			rep.Violations = append(rep.Violations, chunkRep.Violations...)
			repMu.Unlock()
		}
	})

	tally := newSoakTally("node", seed, s.Clock())
	cli := clientOn(s.URL(), s.Clock())
	for i := 0; i < chaosSoakRequests; i++ {
		model := modelsUsed[i%len(modelsUsed)]
		op := func() error { return chatOnce(cli, model, seed) }
		tally.request(fmt.Sprintf("req-%d", i), op, op)
	}

	invariant.CheckServer(&rep, s)
	invariant.CheckCkptTrace(&rep, tr)
	return tally.finish(&rep, inj), nil
}

// ChaosClusterSoak runs one seeded cluster trial: a protocol-mixed
// workload through the two-node gateway — SSE and NDJSON streams
// alternating, with a periodic non-stream request exercising the
// response cache — while heartbeat, proxy, stream-cut, translation,
// and cache faults fire; every successful stream's transcript is
// compared byte-for-byte against the deterministic expectation (a
// failover that duplicates or drops an event is an invariant
// violation, not just a failure), and at quiescence the node
// transition trace and both servers are audited.
func ChaosClusterSoak(seed int64) (ChaosRow, error) {
	const model = "llama3.2:1b-fp16"
	cfg := config.DefaultCluster()
	cfg.Cluster.HeartbeatSec = 3600 // swept manually between requests
	cfg.Nodes = []config.Node{
		{Name: "node-a", Models: []config.Model{{Name: model, Engine: "ollama"}}},
		{Name: "node-b", Models: []config.Model{{Name: model, Engine: "ollama"}}},
	}

	tr := chaos.NewTrace()
	inj := chaos.NewInjector(chaos.MustParsePlan(ClusterChaosRules).WithSeed(seed))
	// The plan has only cluster.* and proxy.* rules, so arming at
	// construction is safe: node startup consults none of them (the
	// front-door sites fire per request, never during startup).
	c, stop, err := startCluster(cfg, cluster.WithChaos(inj), cluster.WithTrace(tr))
	if err != nil {
		return ChaosRow{}, err
	}
	defer stop()
	clock := c.Clock()

	tally := newSoakTally("cluster", seed, clock)
	var rep invariant.Report
	reqSeed := seed
	for i := 0; i < chaosSoakRequests; i++ {
		c.NodeRegistry().Sweep() // exercise heartbeat faults between requests
		id := fmt.Sprintf("stream-%d", i)
		// The workload mixes protocols: SSE, NDJSON, SSE, then one
		// non-stream request per cycle. The non-stream requests are
		// byte-identical, so after the first every repeat is a cache hit
		// unless a proxy.cache fault degrades the lookup to a bypass —
		// either way the answer must be correct, which is exactly the
		// property the cache faults probe.
		kind := i % 4
		attempt := func() error {
			if kind == 3 {
				status, _, err := chatOnceHTTP(c.URL(), model, reqSeed, clock)
				if err != nil {
					return err
				}
				if status != http.StatusOK {
					return fmt.Errorf("non-stream request: HTTP %d", status)
				}
				return nil
			}
			ndjson := kind == 1
			got, finished, err := streamOnceFramed(c.URL(), model, reqSeed, clock, ndjson)
			if err != nil {
				return err
			}
			if !finished {
				// Truncated without a finish marker: every replica was cut
				// mid-stream. The client can see this and retry, so it is a
				// failure, not a correctness violation.
				return fmt.Errorf("stream truncated after %d bytes", len(got))
			}
			// A stream that did finish must be byte-exact: a failover that
			// duplicated or dropped an event is an invariant violation.
			if want := expectedStreamFramed(reqSeed, ndjson); got != want {
				rep.Addf("stream.integrity", id,
					"failover transcript diverged: got %d bytes, want %d", len(got), len(want))
			}
			return nil
		}
		tally.request(id, attempt, func() error {
			// A downed node needs a clean probe to rejoin before it can
			// absorb retries.
			c.NodeRegistry().Sweep()
			return attempt()
		})
	}

	invariant.CheckNodeTrace(&rep, tr)
	drainNodes(c, clock)
	for _, n := range c.Nodes() {
		invariant.CheckServer(&rep, n.Server())
	}
	return tally.finish(&rep, inj), nil
}

// ChaosSchedSoak runs one seeded scheduling-subsystem trial: a two-node
// cluster with classes, admission, pre-warm, and a TTL policy active
// serves a sequential workload while sched.admit flips admission
// decisions, sched.prefetch suppresses pre-warms, and sched.evict
// inverts reaper verdicts. The soak asserts that mispredictions degrade
// only into well-formed sheds (every 429 carries Retry-After and is
// mirrored by a shed counter) and retriable latency — never into
// invariant violations.
func ChaosSchedSoak(seed int64) (ChaosRow, error) {
	modelsUsed := []string{"llama3.2:1b-fp16", "llama3.2:3b-fp16"}
	cfg := config.DefaultCluster()
	cfg.Cluster.HeartbeatSec = 3600
	cfg.Scheduling = config.SchedCfg{
		Classes: []config.SchedClass{
			{Name: "interactive", Priority: 0, SLOSec: 30, RatePerSec: 5},
			{Name: "batch", Priority: 1, SLOSec: 30, RatePerSec: 5},
		},
		Admission:          true,
		Prewarm:            true,
		PrewarmIntervalSec: 5,
		PrewarmThreshold:   0.01,
		TTLPolicy:          "fixed",
		TTLSec:             5,
	}
	nodeModels := []config.Model{
		{Name: modelsUsed[0], Engine: "ollama", Class: "interactive"},
		{Name: modelsUsed[1], Engine: "ollama", Class: "batch"},
	}
	cfg.Nodes = []config.Node{
		{Name: "node-a", Models: nodeModels},
		{Name: "node-b", Models: nodeModels},
	}

	inj := chaos.NewInjector(chaos.MustParsePlan(SchedChaosRules).WithSeed(seed))
	// The plan has only sched.* rules: startup consults none of them
	// (the reaper and pre-warm loops begin with Start, after arming).
	c, stop, err := startCluster(cfg, cluster.WithChaos(inj))
	if err != nil {
		return ChaosRow{}, err
	}
	defer stop()
	clock := c.Clock()

	tally := newSoakTally("sched", seed, clock)
	var rep invariant.Report
	sheds429 := 0
	attempt := func(model string) error {
		status, retryAfter, err := chatOnceHTTP(c.URL(), model, seed, clock)
		if err != nil {
			return err
		}
		switch status {
		case 200:
			return nil
		case 429:
			sheds429++
			// A shed must always be well-formed: machine-readable backoff.
			if n, convErr := strconv.Atoi(retryAfter); convErr != nil || n < 1 {
				rep.Addf("sched.shed", model, "429 with malformed Retry-After %q", retryAfter)
			}
			return fmt.Errorf("shed with Retry-After %s", retryAfter)
		default:
			return fmt.Errorf("unexpected HTTP %d", status)
		}
	}
	for i := 0; i < chaosSoakRequests; i++ {
		model := modelsUsed[i%len(modelsUsed)]
		op := func() error { return attempt(model) }
		tally.request(fmt.Sprintf("sched-req-%d", i), op, op)
	}

	// Quiesce before the audit: halt the pre-warm loop (with requests
	// stopped, nothing re-warms a model again) and let the short-TTL
	// reaper drain every backend to SwappedOut. Without this the
	// background pre-warm/evict churn keeps some backend legitimately
	// mid-swap at any instant the audit could run.
	if _, _, pw := c.Sched(); pw != nil {
		pw.Halt()
	}
	for waited := time.Duration(0); waited < 240*time.Second; waited += time.Second {
		drained := true
		for _, n := range c.Nodes() {
			for _, b := range n.Server().Backends() {
				if b.State() != core.BackendSwappedOut {
					drained = false
				}
			}
		}
		if drained {
			break
		}
		clock.Sleep(time.Second)
	}

	// Every client-visible 429 must be mirrored by exactly one shed
	// counter increment — admission accounting cannot drift.
	var counted float64
	for _, class := range []string{"interactive", "batch"} {
		counted += c.Registry().Counter("sched_shed_" + class).Value()
	}
	if int(counted) != sheds429 {
		rep.Addf("sched.accounting", "gateway",
			"shed counters %d != observed 429s %d", int(counted), sheds429)
	}

	drainNodes(c, clock)
	for _, n := range c.Nodes() {
		invariant.CheckServer(&rep, n.Server())
	}
	return tally.finish(&rep, inj), nil
}

// chatOnceHTTP issues one non-streaming request at the HTTP layer,
// returning the status code and Retry-After header so shed responses
// can be audited rather than folded into a client error. The round trip
// is one gate-tracked exchange, so the server's handler goroutines can
// advance simulated time while this caller is parked inside net/http,
// but the hops themselves land at the instant they were sent.
func chatOnceHTTP(url, model string, seed int64, clock simclock.Clock) (status int, retryAfter string, err error) {
	body := fmt.Sprintf(`{"model":%q,"messages":[{"role":"user","content":"soak"}],"max_tokens":4,"seed":%d}`, model, seed)
	err = clientOn(url, clock).Do(context.Background(), http.MethodPost, "/v1/chat/completions", []byte(body), nil,
		func(resp *http.Response) error {
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			status, retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
			return nil
		})
	return status, retryAfter, err
}

// chatOnce issues one non-streaming request.
func chatOnce(cli *openai.Client, model string, seed int64) error {
	s := seed
	_, err := cli.ChatCompletion(context.Background(), &ir.ChatCompletionRequest{
		Model:     model,
		Messages:  []ir.Message{{Role: "user", Content: "soak"}},
		Seed:      &s,
		MaxTokens: 4,
	})
	return err
}

// chaosStreamMin / chaosStreamMax bound the soak's stream length:
// short enough that a double cut (both replicas severed on one
// request) stays an occasional failure rather than the norm, long
// enough that cuts land at varied positions.
const (
	chaosStreamMin = 12
	chaosStreamMax = 16
)

// streamOnceFramed issues one streaming request under either client
// framing: the OpenAI SSE wire or the Ollama NDJSON wire. Both
// canonicalize to the same upstream stream, so the concatenated
// transcript must agree modulo the length clamp (the Ollama wire has
// no min_tokens knob, so its expectation is the natural length capped
// at num_predict).
func streamOnceFramed(url, model string, seed int64, clock simclock.Clock, ndjson bool) (string, bool, error) {
	if ndjson {
		return streamOnceNDJSON(url, model, seed, clock)
	}
	return streamOnce(url, model, seed, clock)
}

// streamOnceNDJSON issues one /api/chat streaming request and consumes
// the NDJSON line stream, returning the concatenated completion text
// and whether the done:true line arrived.
func streamOnceNDJSON(url, model string, seed int64, clock simclock.Clock) (string, bool, error) {
	var got strings.Builder
	finished := false
	body := fmt.Sprintf(
		`{"model":%q,"messages":[{"role":"user","content":"soak stream"}],"options":{"seed":%d,"num_predict":%d}}`,
		model, seed, chaosStreamMax)
	err := clientOn(url, clock).Do(context.Background(), http.MethodPost, "/api/chat", []byte(body), nil,
		func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				_, _ = io.Copy(io.Discard, resp.Body)
				return fmt.Errorf("stream request: HTTP %d", resp.StatusCode)
			}
			br := bufio.NewReader(resp.Body)
			for {
				line, rerr := ir.ReadNDJSONLine(br)
				if line != "" {
					var chunk ir.OllamaChatChunk
					if jerr := json.Unmarshal([]byte(line), &chunk); jerr != nil {
						return fmt.Errorf("bad NDJSON line: %w", jerr)
					}
					got.WriteString(chunk.Message.Content)
					if chunk.Done {
						finished = true
					}
				}
				if rerr != nil {
					return nil // EOF (clean or cut); finished tells which
				}
			}
		})
	return got.String(), finished, err
}

// streamOnce issues one streaming request, returning the concatenated
// completion text and whether the stream delivered its finish chunk —
// the relayed stream ends silently at EOF when every replica was cut,
// so only the finish marker distinguishes complete from truncated.
func streamOnce(url, model string, seed int64, clock simclock.Clock) (string, bool, error) {
	s := seed
	var got strings.Builder
	finished := false
	err := clientOn(url, clock).ChatCompletionStream(context.Background(),
		&ir.ChatCompletionRequest{
			Model:     model,
			Messages:  []ir.Message{{Role: "user", Content: "soak stream"}},
			Seed:      &s,
			MinTokens: chaosStreamMin,
			MaxTokens: chaosStreamMax,
		},
		func(ch *ir.ChatCompletionChunk) error {
			for _, choice := range ch.Choices {
				got.WriteString(choice.Delta.Content)
				if choice.FinishReason != nil && *choice.FinishReason != "" {
					finished = true
				}
			}
			return nil
		})
	return got.String(), finished, err
}

// expectedStreamFramed computes the deterministic transcript a soak
// stream must observe — identical on every replica, which is what
// makes skip-ahead failover exact. It mirrors the engine handler's
// token-count clamp; the NDJSON request carries no min_tokens (the
// Ollama wire has no such knob), so its floor is zero.
func expectedStreamFramed(seed int64, ndjson bool) string {
	var gen engine.Generator
	full := engine.PromptText([]ir.Message{{Role: "user", Content: "soak stream"}})
	n := gen.CompletionLength(full, seed, chaosStreamMax)
	if !ndjson && n < chaosStreamMin {
		n = chaosStreamMin
	}
	var want strings.Builder
	toks := gen.Stream(full, seed)
	for i := 0; i < n; i++ {
		want.WriteString(toks.Next())
	}
	return want.String()
}

// drainNodes waits, in simulated time, until no node backend holds a
// request: CheckServer audits a drained deployment, and a stream the
// gateway cut over to another replica retires on its first node only
// after the client has moved on. A request that never retires still
// fails the audit once the bounded wait runs out.
func drainNodes(c *cluster.Cluster, clock simclock.Clock) {
	deadline := clock.Now().Add(time.Minute)
	for clock.Now().Before(deadline) {
		var pending int64
		for _, n := range c.Nodes() {
			for _, b := range n.Server().Backends() {
				pending += b.Pending()
			}
		}
		if pending == 0 {
			return
		}
		clock.Sleep(10 * time.Millisecond)
	}
}

// clientOn returns a client for url whose exchanges are tracked on
// clock's gate.
func clientOn(url string, clock simclock.Clock) *openai.Client {
	cli := openai.NewClient(url)
	cli.Clock = clock
	return cli
}

// retryUntilOK retries op up to five times, reporting whether it
// eventually succeeded.
func retryUntilOK(op func() error) bool {
	for attempt := 0; attempt < 5; attempt++ {
		if op() == nil {
			return true
		}
	}
	return false
}

// soakTally books a soak's requests: each is accepted on the ledger,
// tried once and, if that fails, retried a bounded number of times. A
// recovery's latency runs from the first failure to the retry that
// succeeds.
type soakTally struct {
	row        ChaosRow
	led        *invariant.Ledger
	clock      simclock.Clock
	recoveries []time.Duration
}

func newSoakTally(scope string, seed int64, clock simclock.Clock) *soakTally {
	return &soakTally{row: ChaosRow{Scope: scope, Seed: seed}, led: invariant.NewLedger(), clock: clock}
}

// request runs one request: first, then retry until it succeeds.
func (t *soakTally) request(id string, first, retry func() error) {
	t.led.Accept(id)
	t.row.Requests++
	if first() != nil {
		t.row.Failed++
		tFail := t.clock.Now()
		if retryUntilOK(retry) {
			t.row.Recovered++
			t.recoveries = append(t.recoveries, t.clock.Since(tFail))
		} else {
			t.row.Unrecovered++
		}
	}
	t.led.Finish(id)
}

// finish audits the ledger into rep and returns the trial's row,
// finalized from the invariant report, the injector's stats and the
// measured recovery latencies.
func (t *soakTally) finish(rep *invariant.Report, inj *chaos.Injector) ChaosRow {
	t.led.Check(rep)
	row := t.row
	row.FaultsInjected = inj.TotalFired()
	row.Violations = len(rep.Violations)
	if row.Violations > 0 {
		row.ViolationText = rep.String()
	}
	if len(t.recoveries) > 0 {
		row.RecoveryP50Sec = quantile(t.recoveries, 0.50)
		row.RecoveryMaxSec = slices.Max(t.recoveries).Seconds()
	}
	return row
}

// PrintChaos renders a chaos sweep, one row per seed, plus totals.
func PrintChaos(w io.Writer, rows []ChaosRow) {
	fprintf(w, "Chaos soak: seeded fault schedules vs system-wide invariants\n")
	fprintf(w, "node rules:    %s\n", NodeChaosRules)
	fprintf(w, "cluster rules: %s\n", ClusterChaosRules)
	fprintf(w, "sched rules:   %s\n", SchedChaosRules)
	fprintf(w, "%-8s %6s %5s %7s %10s %7s %11s %11s %11s\n",
		"scope", "seed", "reqs", "failed", "recovered", "faults", "rec-p50(s)", "rec-max(s)", "violations")
	var faults, violations int
	for _, r := range rows {
		fprintf(w, "%-8s %6d %5d %7d %10d %7d %11.2f %11.2f %11d\n",
			r.Scope, r.Seed, r.Requests, r.Failed, r.Recovered, r.FaultsInjected,
			r.RecoveryP50Sec, r.RecoveryMaxSec, r.Violations)
		faults += r.FaultsInjected
		violations += r.Violations
		if r.ViolationText != "" {
			fprintf(w, "  seed %d violations:\n%s\n", r.Seed, r.ViolationText)
		}
	}
	fprintf(w, "total: %d seeds, %d faults injected, %d invariant violations\n",
		len(rows), faults, violations)
	if violations > 0 {
		fprintf(w, "replay a failing seed with: go test ./internal/experiments -run TestChaosSoak -chaos.seed=<seed>\n")
	}
}

// ChaosCSV renders chaos rows as CSV lines.
func ChaosCSV(rows []ChaosRow) (header string, out []string) {
	header = "scope,seed,requests,failed,recovered,unrecovered,faults,recovery_p50_s,recovery_max_s,violations"
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%d",
			r.Scope, r.Seed, r.Requests, r.Failed, r.Recovered, r.Unrecovered,
			r.FaultsInjected, r.RecoveryP50Sec, r.RecoveryMaxSec, r.Violations))
	}
	return header, out
}
