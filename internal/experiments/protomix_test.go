package experiments

import "testing"

// TestProtocolMixAblation asserts the properties the committed artifact
// depends on (TestExperimentGoldens pins its bytes): the cache-off arm
// records no cache activity, and the cache-on arm converts repeats — including the cross-protocol /api/generate
// twin of the OpenAI chat request — into hits without losing a single
// request.
func TestProtocolMixAblation(t *testing.T) {
	const seed = 42
	res, err := AblationProtocolMix(seed)
	if err != nil {
		t.Fatal(err)
	}

	arms := map[string]ProtomixArm{}
	for _, a := range res.Arms {
		arms[a.Arm] = a
	}
	off, on := arms["cache-off"], arms["cache-on"]
	if off.Requests == 0 || off.Requests != on.Requests {
		t.Fatalf("arm request counts diverge: off=%d on=%d", off.Requests, on.Requests)
	}
	if off.CacheHits != 0 || off.CacheMisses != 0 {
		t.Fatalf("cache-off arm recorded cache activity: %+v", off)
	}
	if on.CacheHits == 0 {
		t.Fatal("cache-on arm recorded no hits despite repeated prompts")
	}
	if on.CacheBypass == 0 {
		t.Fatal("no-store probes recorded no bypasses")
	}
	if on.Placements >= off.Placements {
		t.Fatalf("cache hits did not save placements: on=%d off=%d", on.Placements, off.Placements)
	}

	for _, r := range res.Rows {
		if r.OK != r.Requests {
			t.Fatalf("%s/%s: %d of %d requests failed", r.Arm, r.Kind, r.Requests-r.OK, r.Requests)
		}
		if r.Arm == "cache-off" && r.CacheHits != 0 {
			t.Fatalf("cache-off %s reported hits", r.Kind)
		}
	}
	perKind := map[string]ProtomixRow{}
	for _, r := range res.Rows {
		if r.Arm == "cache-on" {
			perKind[r.Kind] = r
		}
	}
	// The second chat slot repeats the first's body, so at least one hit
	// per cycle; generate shares the chat entry across protocols.
	if perKind["chat"].CacheHits == 0 {
		t.Fatal("repeated chat bodies never hit")
	}
	if perKind["generate"].CacheHits == 0 {
		t.Fatal("cross-protocol generate requests never hit the chat-stored entries")
	}
	// Streams are never cached.
	if perKind["chat-sse"].CacheHits != 0 || perKind["chat-ndjson"].CacheHits != 0 {
		t.Fatal("a streaming request reported a cache hit")
	}
}
