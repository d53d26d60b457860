package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"swapservellm/internal/config"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsSmoke runs every workload briefly, measured and traced,
// and checks that the result line carries every metric BENCHMARK.json
// names, with its unit, and that the output checks passed.
func TestWorkloadsSmoke(t *testing.T) {
	sp := loadSpec(t)
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range sp.Workloads {
		if _, ok := workloadByName(ws.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", ws.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(&out, root, w, 3, 2*time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced && res.Metrics["obs.dropped_spans"].Value != 0 {
				t.Errorf("%s: %v spans dropped", w.name, res.Metrics["obs.dropped_spans"].Value)
			}
			if !strings.Contains(out.String(), `"provenance"`) {
				t.Errorf("%s: no provenance line in output", w.name)
			}
		}
	}
}

// TestCorruptedResponseFailsCheck feeds valid responses of every kind
// through the output check, then corrupted copies, each of which must
// be rejected and must fail the run.
func TestCorruptedResponseFailsCheck(t *testing.T) {
	const m = "llama3.2:1b-fp16"
	valid := map[kind]string{
		kindChat: `{"model":"` + m + `","choices":[{"message":{"role":"assistant","content":"hi there"},"finish_reason":"stop"}]}`,
		kindChatSSE: `data: {"model":"` + m + `","choices":[{"delta":{"role":"assistant"}}]}` + "\n\n" +
			`data: {"model":"` + m + `","choices":[{"delta":{"content":"hi"}}]}` + "\n\n" +
			`data: {"model":"` + m + `","choices":[{"delta":{"content":" there"}}]}` + "\n\n" +
			"data: [DONE]\n\n",
		kindOllamaChat: `{"model":"` + m + `","message":{"role":"assistant","content":"hi"},"done":false}` + "\n" +
			`{"model":"` + m + `","message":{"role":"assistant","content":" there"},"done":false}` + "\n" +
			`{"model":"` + m + `","message":{"role":"assistant","content":""},"done":true}` + "\n",
		kindGenerate: `{"model":"` + m + `","response":"hi there","done":true}`,
		kindEmbed:    `{"model":"` + m + `","data":[{"embedding":[1,2,3,4,5,6,7,8]}]}`,
		kindRerank:   `{"model":"` + m + `","results":[{"index":2,"relevance_score":0.9},{"index":0,"relevance_score":0.5},{"index":4,"relevance_score":0.1}]}`,
	}
	corrupt := map[kind][]string{
		kindChat: {strings.Replace(valid[kindChat], `"finish_reason":"stop"`, `"finish_reason":""`, 1),
			strings.Replace(valid[kindChat], "hi there", "", 1), valid[kindChat][:40]},
		kindChatSSE: {strings.Replace(valid[kindChatSSE], "data: [DONE]\n\n", "", 1),
			strings.Replace(valid[kindChatSSE], `"content":" there"`, `"content":" where"`, 1)},
		kindOllamaChat: {strings.Replace(valid[kindOllamaChat], `"done":true`, `"done":false`, 1),
			strings.Replace(valid[kindOllamaChat], `"content":"hi"`, `"content":"ho"`, 1)},
		kindGenerate: {strings.Replace(valid[kindGenerate], `"done":true`, `"done":false`, 1)},
		kindEmbed:    {strings.Replace(valid[kindEmbed], "1,2,3,4,5,6,7,8", "1,2,3,4,5,6,7", 1)},
		kindRerank: {strings.Replace(valid[kindRerank], `"index":4`, `"index":2`, 1),
			strings.Replace(valid[kindRerank], `"index":4`, `"index":9`, 1)},
	}
	chk := newChecker()
	for k, body := range valid {
		r := request{kind: k, model: m, prompt: "p", maxTokens: 4, seed: 1}
		d, err := decode(k, []byte(body))
		if err == nil {
			err = chk.check(r, d)
		}
		if err != nil {
			t.Fatalf("%s: valid response rejected: %v", k, err)
		}
		// The same response naming another model is wrong.
		if err := chk.check(request{kind: k, model: "gemma:7b-fp16", prompt: "p", maxTokens: 4, seed: 1}, d); err == nil {
			t.Errorf("%s: response naming %q accepted for another model", k, d.model)
		}
		for _, bad := range corrupt[k] {
			d, err := decode(k, []byte(bad))
			if err == nil {
				err = chk.check(r, d)
			}
			if err == nil {
				t.Errorf("%s: corrupted response accepted:\n%s", k, bad)
			}
		}
	}

	// A failed check fails the run and counts against the error rate.
	outs := []outcome{
		{req: request{kind: kindChat, model: m}, ttft: time.Second},
		{req: request{kind: kindChat, model: m}, err: errors.New("output check: corrupted")},
	}
	res, err := endToEnd(&bytes.Buffer{}, frontdoorHot, config.Cluster{}, window{outs: outs, wall: time.Second, sim: time.Second}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Metrics["success_rate"].Value != 0.5 {
		t.Errorf("corrupted response: correct=%v failed=%d success_rate=%v", res.Correct, res.Failed, res.Metrics["success_rate"].Value)
	}
}
