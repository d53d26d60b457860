package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"swapservellm/internal/cluster"
	"swapservellm/internal/config"
	"swapservellm/internal/simclock"
)

// The protocol-mix ablation measures the multi-protocol front door as
// a system: a fixed script of requests cycling through every endpoint
// family — OpenAI chat (buffered and SSE), Ollama chat (NDJSON) and
// generate, embeddings, and rerank — replayed through a two-node
// cluster twice, once with the IR-keyed response cache disabled and
// once enabled. The script repeats prompts across cycles, so the cache
// arm converts repeats into hits; and because the cache key is the
// canonical (protocol-independent) encoding, an /api/generate request
// hits on the entry its OpenAI chat twin stored. The trial runs in
// pure virtual time with a sequential workload, so the emitted
// BENCH_protomix.json is byte-identical across runs.

// ProtomixRow is one (arm, endpoint-kind) measurement.
type ProtomixRow struct {
	Arm       string
	Kind      string // endpoint family + framing label
	Protocol  string // "openai" or "ollama"
	Requests  int
	OK        int
	CacheHits int // client-visible X-Cache: hit responses
	MeanSec   float64
}

// ProtomixArm aggregates one arm's cache and placement activity.
type ProtomixArm struct {
	Arm         string
	Requests    int
	CacheHits   int
	CacheMisses int
	CacheBypass int
	Placements  int
	MeanSec     float64
	ElapsedS    float64
}

// ProtomixResult is the full ablation output.
type ProtomixResult struct {
	Rows []ProtomixRow
	Arms []ProtomixArm
}

// protomixModel is the single served model: small enough that both
// nodes hold it warm after the first placement, so the measured deltas
// come from the front door, not swap churn.
const protomixModel = "llama3.2:1b-fp16"

// protomixCycles is the number of times the eight-slot script repeats.
const protomixCycles = 6

// protomixPrompts is the prompt pool; each cycle uses one prompt, so a
// six-cycle run revisits every prompt and gives the cache repeats to
// convert.
var protomixPrompts = []string{
	"summarize the swap pipeline",
	"compare checkpoint tiers",
	"explain placement locality",
}

// protomixSlot describes one slot of the script cycle.
type protomixSlot struct {
	kind     string
	protocol string
	noStore  bool
}

// protomixScript is the eight-slot cycle: every endpoint family, both
// framings of the chat stream, a deliberate repeat (the cache's
// bread-and-butter), and a no-store probe of the bypass path.
var protomixScript = []protomixSlot{
	{kind: "chat", protocol: "openai"},
	{kind: "chat-sse", protocol: "openai"},
	{kind: "chat-ndjson", protocol: "ollama"},
	{kind: "embeddings", protocol: "openai"},
	{kind: "generate", protocol: "ollama"},
	{kind: "rerank", protocol: "openai"},
	{kind: "chat", protocol: "openai"}, // same body as slot 0: a repeat
	{kind: "chat", protocol: "openai", noStore: true},
}

// protomixBody renders the request body for a slot. The generate body
// canonicalizes to the same upstream encoding as the chat body for the
// same prompt — that equality is what makes the cross-protocol cache
// hit possible.
func protomixBody(kind, prompt string, seed int64) (path, body string) {
	switch kind {
	case "chat", "chat-sse":
		stream := ""
		if kind == "chat-sse" {
			stream = `,"stream":true`
		}
		return "/v1/chat/completions", fmt.Sprintf(
			`{"model":%q,"messages":[{"role":"user","content":%q}],"max_tokens":8,"seed":%d%s}`,
			protomixModel, prompt, seed, stream)
	case "chat-ndjson":
		return "/api/chat", fmt.Sprintf(
			`{"model":%q,"messages":[{"role":"user","content":%q}],"options":{"seed":%d,"num_predict":8}}`,
			protomixModel, prompt, seed)
	case "generate":
		return "/api/generate", fmt.Sprintf(
			`{"model":%q,"prompt":%q,"stream":false,"options":{"seed":%d,"num_predict":8}}`,
			protomixModel, prompt, seed)
	case "embeddings":
		return "/v1/embeddings", fmt.Sprintf(
			`{"model":%q,"input":[%q]}`, protomixModel, prompt)
	case "rerank":
		return "/v1/rerank", fmt.Sprintf(
			`{"model":%q,"query":%q,"documents":["swap","serve","llm"],"top_n":2}`,
			protomixModel, prompt)
	}
	panic("protomix: unknown kind " + kind)
}

// AblationProtocolMix runs both arms over the shared script.
func AblationProtocolMix(seed int64) (*ProtomixResult, error) {
	res := &ProtomixResult{}
	for _, arm := range []struct {
		name     string
		cacheOff bool
	}{
		{"cache-off", true},
		{"cache-on", false},
	} {
		rows, sum, err := runProtomixArm(arm.name, arm.cacheOff, seed)
		if err != nil {
			return nil, fmt.Errorf("arm %s: %w", arm.name, err)
		}
		res.Rows = append(res.Rows, rows...)
		res.Arms = append(res.Arms, sum)
	}
	return res, nil
}

// runProtomixArm replays the script against a fresh two-node cluster.
func runProtomixArm(arm string, cacheOff bool, seed int64) ([]ProtomixRow, ProtomixArm, error) {
	cfg := config.DefaultCluster()
	cfg.Cluster.HeartbeatSec = 3600
	cfg.Global.ResponseTimeoutSec = 0
	cfg.Global.KeepAliveSec = 0
	cfg.Proxy.CacheDisabled = cacheOff
	cfg.Nodes = []config.Node{
		{Name: "node-a", Models: []config.Model{{Name: protomixModel, Engine: "ollama"}}},
		{Name: "node-b", Models: []config.Model{{Name: protomixModel, Engine: "ollama"}}},
	}

	clock, gate := virtualClock()
	defer gate.Exit()
	c, err := cluster.New(cfg, cluster.WithClock(clock))
	if err != nil {
		return nil, ProtomixArm{}, err
	}
	defer c.Shutdown()
	if err := c.Start(context.Background()); err != nil {
		return nil, ProtomixArm{}, err
	}
	perKind := map[string]*ProtomixRow{}
	var kindLats = map[string][]time.Duration{}
	var allLats []time.Duration
	sum := ProtomixArm{Arm: arm}
	t0 := clock.Now()
	for i := 0; i < protomixCycles*len(protomixScript); i++ {
		slot := protomixScript[i%len(protomixScript)]
		prompt := protomixPrompts[(i/len(protomixScript))%len(protomixPrompts)]
		path, body := protomixBody(slot.kind, prompt, seed)
		row, ok := perKind[slot.kind]
		if !ok {
			row = &ProtomixRow{Arm: arm, Kind: slot.kind, Protocol: slot.protocol}
			perKind[slot.kind] = row
		}
		row.Requests++
		sum.Requests++
		start := clock.Now()
		hit, err := protomixDo(c.URL(), path, body, slot.noStore, clock)
		if err != nil {
			return nil, ProtomixArm{}, fmt.Errorf("request %d (%s): %w", i, slot.kind, err)
		}
		d := clock.Since(start)
		row.OK++
		if hit {
			row.CacheHits++
		}
		kindLats[slot.kind] = append(kindLats[slot.kind], d)
		allLats = append(allLats, d)
	}
	sum.ElapsedS = clock.Since(t0).Seconds()
	sum.MeanSec = mean(allLats)

	reg := c.Registry()
	sum.CacheHits = int(reg.Counter("proxy_cache_hits").Value())
	sum.CacheMisses = int(reg.Counter("proxy_cache_misses").Value())
	sum.CacheBypass = int(reg.Counter("proxy_cache_bypass").Value())
	sum.Placements = int(reg.Counter("placement_total").Value())

	// Rows in script order (first occurrence), stable across runs.
	var rows []ProtomixRow
	seen := map[string]bool{}
	for _, slot := range protomixScript {
		if seen[slot.kind] {
			continue
		}
		seen[slot.kind] = true
		r := perKind[slot.kind]
		r.MeanSec = mean(kindLats[slot.kind])
		rows = append(rows, *r)
	}
	return rows, sum, nil
}

// protomixDo issues one scripted request and fully consumes the
// response (streamed or buffered), returning whether it was served
// from the gateway's response cache. The round trip is one
// gate-tracked exchange, so the virtual clock can advance while this
// caller is parked inside net/http.
func protomixDo(url, path, body string, noStore bool, clock simclock.Clock) (hit bool, err error) {
	var header http.Header
	if noStore {
		header = http.Header{"Cache-Control": {"no-store"}}
	}
	err = clientOn(url, clock).Do(context.Background(), http.MethodPost, path, []byte(body), header,
		func(resp *http.Response) error {
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
			}
			hit = resp.Header.Get("X-Cache") == "hit"
			return nil
		})
	return hit, err
}

// PrintProtomix renders the ablation tables.
func PrintProtomix(w io.Writer, res *ProtomixResult) {
	fprintf(w, "Ablation: protocol mix through the front door, response cache off vs on\n")
	fprintf(w, "%-10s %-12s %-8s %9s %4s %10s %9s\n",
		"Arm", "Endpoint", "Protocol", "requests", "ok", "cache-hits", "mean(s)")
	for _, r := range res.Rows {
		fprintf(w, "%-10s %-12s %-8s %9d %4d %10d %9.3f\n",
			r.Arm, r.Kind, r.Protocol, r.Requests, r.OK, r.CacheHits, r.MeanSec)
	}
	fprintf(w, "%-10s %9s %6s %8s %8s %11s %9s %11s\n",
		"Arm", "requests", "hits", "misses", "bypass", "placements", "mean(s)", "elapsed(s)")
	for _, a := range res.Arms {
		fprintf(w, "%-10s %9d %6d %8d %8d %11d %9.3f %11.3f\n",
			a.Arm, a.Requests, a.CacheHits, a.CacheMisses, a.CacheBypass,
			a.Placements, a.MeanSec, a.ElapsedS)
	}
}

// ProtomixCSV flattens the per-endpoint rows for -csv output.
func ProtomixCSV(res *ProtomixResult) (string, []string) {
	header := "arm,endpoint,protocol,requests,ok,cache_hits,mean_s"
	var rows []string
	for _, r := range res.Rows {
		rows = append(rows, fmt.Sprintf("%s,%s,%s,%d,%d,%d,%.3f",
			r.Arm, r.Kind, r.Protocol, r.Requests, r.OK, r.CacheHits, r.MeanSec))
	}
	return header, rows
}

// ProtomixBenchJSON renders the committed BENCH_protomix.json artifact.
// Formatting is fixed-precision so the bytes are stable run to run.
func ProtomixBenchJSON(res *ProtomixResult) string {
	out := "{\n"
	out += "  \"benchmark\": \"AblationProtocolMix\",\n"
	out += "  \"description\": \"A fixed script cycling every front-door endpoint family (OpenAI chat buffered+SSE, Ollama chat NDJSON, Ollama generate, embeddings, rerank) replayed through a two-node cluster with the IR-keyed response cache off and on. Repeated prompts become hits in the cache arm; /api/generate hits on entries stored by its OpenAI chat twin because the key is the canonical encoding.\",\n"
	out += "  \"testbed\": \"h100\",\n"
	out += "  \"command\": \"go run ./cmd/swapbench -exp protomix\",\n"
	out += "  \"rows\": [\n"
	for i, r := range res.Rows {
		comma := ","
		if i == len(res.Rows)-1 {
			comma = ""
		}
		out += fmt.Sprintf("    {\"arm\": %q, \"endpoint\": %q, \"protocol\": %q, \"requests\": %d, \"ok\": %d, \"cache_hits\": %d, \"mean_s\": %.3f}%s\n",
			r.Arm, r.Kind, r.Protocol, r.Requests, r.OK, r.CacheHits, r.MeanSec, comma)
	}
	out += "  ],\n"
	out += "  \"arms\": [\n"
	for i, a := range res.Arms {
		comma := ","
		if i == len(res.Arms)-1 {
			comma = ""
		}
		out += fmt.Sprintf("    {\"arm\": %q, \"requests\": %d, \"cache_hits\": %d, \"cache_misses\": %d, \"cache_bypass\": %d, \"placements\": %d, \"mean_s\": %.3f, \"elapsed_s\": %.3f}%s\n",
			a.Arm, a.Requests, a.CacheHits, a.CacheMisses, a.CacheBypass, a.Placements, a.MeanSec, a.ElapsedS, comma)
	}
	out += "  ]\n}\n"
	return out
}
