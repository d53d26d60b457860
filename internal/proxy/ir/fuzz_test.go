package ir

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// requestSeeds are request bodies of every family for the differential
// checks: the shapes perfbench's frontdoor-hot client sends (keys in
// json.Marshal's sorted map order), their canonical encodings, and the
// corner cases of each decoder's fast path.
var requestSeeds = []string{
	`{"max_tokens":8,"messages":[{"content":"hot 3: swap serve","role":"user"}],"model":"llama3.2:3b-fp16","seed":3,"stream":false}`,
	`{"max_tokens":8,"messages":[{"content":"hot 3: swap serve","role":"user"}],"model":"llama3.2:3b-fp16","seed":3,"stream":true}`,
	`{"messages":[{"content":"cold 3/0/2: restore","role":"user"}],"model":"gemma3:4b-fp16","options":{"num_predict":8,"seed":3}}`,
	`{"model":"gemma3:4b-fp16","options":{"num_predict":8,"seed":3},"prompt":"hot 1: checkpoint","stream":false}`,
	`{"input":["hot 5: placement"],"model":"llama3.2:3b-fp16"}`,
	`{"documents":["swap","serve","checkpoint","restore","placement"],"model":"gemma3:4b-fp16","query":"hot 2: swap","top_n":3}`,
	`{"model":"m","messages":[{"role":"user","content":"a<b&c>d"}],"max_tokens":8,"seed":3}`,
	`{"model":"m","input":"x"}`,
	`{"model":"m","input":[]}`,
	`{"model":"m","input":null,"user":"u"}`,
	`{"model":"m","input":[null]}`,
	`{"model":"m","input":["a",1]}`,
	`{"model":"m","input":"x","encoding_format":"float"}`,
	`{"model":"m","query":"q","documents":"d"}`,
	`{"model":"m","query":"q","documents":[],"top_n":-1}`,
	`{"model":"m","query":"q","documents":["a"],"top_n":1.5}`,
	`{"model":"m","query":"q","query":"r","documents":["a"]}`,
	`{"Model":"m","query":"q","documents":["a"]}`,
	`{"model":"m","messages":null,"stream":null,"options":null}`,
	`{"model":"m","messages":[null,{"role":"user"}],"options":{}}`,
	`{"model":"m","messages":[{"role":"user","content":"hi","images":[]}],"options":{"temperature":null,"seed":-1}}`,
	`{"model":"m","prompt":"p","system":"s","stream":true,"images":["aGk="]}`,
	`{"model":"m","prompt":"p","options":{"num_predict":"8"}}`,
	`{"model":"m","prompt":"p","options":{"top_k":8}}`,
	`{"model":"m","prompt":"p","stream":1}`,
}

// sameDecode fails t unless a fast decode of body matches encoding/json,
// error text included.
func sameDecode(t *testing.T, what string, body []byte, got any, gerr error, want any, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s of %q: error %v, oracle %v", what, body, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s of %q:\n got    %#v\n oracle %#v", what, body, got, want)
	}
}

// checkRequestDecoders compares each request family's fast decoder with
// json.Unmarshal into a fresh value, and OpenAICodec.Check with
// DecodeRequest: Check must accept exactly the bodies DecodeRequest
// accepts, with its model and stream flag, and reject the others with
// its error.
func checkRequestDecoders(t *testing.T, body []byte) {
	t.Helper()
	chat, gerr := decodeChat(FamilyChat, body)
	wchat := new(ChatCompletionRequest)
	sameDecode(t, "chat request", body, &chat.chat, gerr, wchat, json.Unmarshal(body, wchat))

	emb, gerr := decodeList(kindEmbeddings, body)
	wemb := new(EmbeddingsRequest)
	sameDecode(t, "embeddings request", body, emb.Embeddings, gerr, wemb, json.Unmarshal(body, wemb))

	rr, gerr := decodeList(kindRerank, body)
	wrr := new(RerankRequest)
	sameDecode(t, "rerank request", body, rr.Rerank, gerr, wrr, json.Unmarshal(body, wrr))

	oc, gerr := decodeOllama(kindOllamaChat, body)
	woc := new(OllamaChatRequest)
	sameDecode(t, "ollama chat request", body, &oc.chat, gerr, woc, json.Unmarshal(body, woc))

	og, gerr := decodeOllama(kindOllamaGenerate, body)
	wog := new(OllamaGenerateRequest)
	sameDecode(t, "ollama generate request", body, &og.generate, gerr, wog, json.Unmarshal(body, wog))

	for _, fam := range fuzzFamiliesOpenAI {
		model, stream, cerr := OpenAICodec{}.Check(fam, body)
		req, derr := OpenAICodec{}.DecodeRequest(fam, body)
		if (cerr == nil) != (derr == nil) || (cerr != nil && cerr.Error() != derr.Error()) {
			t.Fatalf("Check(%s) of %q: error %v, DecodeRequest %v", fam, body, cerr, derr)
		}
		if cerr == nil && (model != req.Model || stream != req.Stream) {
			t.Fatalf("Check(%s) of %q = %q, %v; DecodeRequest %q, %v", fam, body, model, stream, req.Model, req.Stream)
		}
	}
}

// TestRequestDecodersMatchJSON runs the differential checks over the
// seeds and over random requests of every family, rendered by
// encoding/json both as they are and with one field's value nulled.
func TestRequestDecodersMatchJSON(t *testing.T) {
	for _, body := range requestSeeds {
		checkRequestDecoders(t, []byte(body))
	}
	r := rand.New(rand.NewSource(3))
	texts := func() []string {
		if r.Intn(5) == 0 {
			return nil
		}
		out := []string{}
		for n := r.Intn(3); n > 0; n-- {
			out = append(out, randText(r))
		}
		return out
	}
	opts := func() *OllamaOptions {
		if r.Intn(3) == 0 {
			return nil
		}
		o := &OllamaOptions{NumPredict: int(randInt(r))}
		if r.Intn(2) == 0 {
			f := randFloat(r)
			o.Temperature = &f
		}
		if r.Intn(2) == 0 {
			seed := randInt(r)
			o.Seed = &seed
		}
		return o
	}
	stream := func() *bool {
		if r.Intn(3) == 0 {
			return nil
		}
		b := r.Intn(2) == 0
		return &b
	}
	for i := 0; i < 1000; i++ {
		var msgs []OllamaMessage
		for _, m := range randMessages(r) {
			msgs = append(msgs, OllamaMessage{Role: m.Role, Content: m.Content})
		}
		for _, v := range []any{
			randRequest(r),
			&EmbeddingsRequest{Model: randText(r), Input: texts(), User: randText(r)},
			&RerankRequest{Model: randText(r), Query: randText(r), Documents: texts(), TopN: int(randInt(r))},
			&OllamaChatRequest{Model: randText(r), Messages: msgs, Stream: stream(), Options: opts()},
			&OllamaGenerateRequest{Model: randText(r), Prompt: randText(r), System: randText(r), Stream: stream(), Options: opts()},
		} {
			body, err := json.Marshal(v)
			if err != nil {
				continue
			}
			checkRequestDecoders(t, body)
			if k := strings.Index(string(body), `":`); k > 0 && body[k+2] != '{' && body[k+2] != '[' {
				end := k + 2 + bytes.IndexAny(body[k+2:], ",}")
				checkRequestDecoders(t, append(append(append([]byte(nil), body[:k+2]...), "null"...), body[end:]...))
			}
		}
	}
}

// htmlEscape matches an escaped backslash or one of encoding/json's
// HTML escapes.
var htmlEscape = regexp.MustCompile(`\\\\|\\u00(3c|3e|26)`)

// TestCanonicalRequestLeavesHTMLRaw: the canonical request encoding is
// json.Marshal's with <, > and & unescaped, so a body of "<"s does not
// grow sixfold on its way upstream.
func TestCanonicalRequestLeavesHTMLRaw(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	// The first request's text spells escapes, which stay escaped.
	chat := &ChatCompletionRequest{Model: `\u003c`, Messages: []Message{{Role: "user", Content: `a<\u003e\\u0026&`}}}
	for i := 0; i < 1000; i++ {
		if i > 0 {
			chat = randRequest(r)
		}
		for _, req := range []*Request{
			{Family: FamilyChat, Chat: chat},
			{Family: FamilyEmbeddings, Embeddings: &EmbeddingsRequest{Model: randText(r), Input: InputField{randText(r), randText(r)}}},
			{Family: FamilyRerank, Rerank: &RerankRequest{Model: randText(r), Query: randText(r), Documents: []string{randText(r)}}},
		} {
			got, gerr := OpenAICodec{}.EncodeRequest(req)
			var payload any = req.Chat
			switch req.Family {
			case FamilyEmbeddings:
				payload = req.Embeddings
			case FamilyRerank:
				payload = req.Rerank
			}
			want, werr := json.Marshal(payload)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("EncodeRequest error %v, json.Marshal %v", gerr, werr)
			}
			want = htmlEscape.ReplaceAllFunc(want, func(m []byte) []byte {
				switch string(m) {
				case `\u003c`:
					return []byte("<")
				case `\u003e`:
					return []byte(">")
				case `\u0026`:
					return []byte("&")
				}
				return m
			})
			if gerr == nil && !bytes.Equal(got, want) {
				t.Fatalf("EncodeRequest:\n got  %s\n want %s", got, want)
			}
		}
	}
}

// oversizedOllamaChat is a 307 KB /api/chat body of "<"s: within the
// front door's 1 MiB bound, and past it if each "<" were escaped.
var oversizedOllamaChat = `{"model":"m","messages":[{"role":"user","content":"` + strings.Repeat("<", 307<<10) + `"}]}`

// fuzzFamiliesOpenAI are the families the OpenAI codec decodes.
var fuzzFamiliesOpenAI = []Family{FamilyChat, FamilyCompletion, FamilyEmbeddings, FamilyRerank}

// FuzzIRDecodeOpenAI checks the OpenAI codec never panics and that any
// body it accepts re-encodes to a stable canonical fixed point:
// decode(encode(decode(x))) must succeed and encode identically (the
// property the response-cache key relies on).
func FuzzIRDecodeOpenAI(f *testing.F) {
	f.Add([]byte(goldenOpenAIChat))
	f.Add([]byte(`{"model":"m","messages":[{"role":"user","content":"hi"}]}`))
	f.Add([]byte(`{"model":"m","messages":[{"role":"user","content":[{"type":"text","text":"a"},{"type":"image_url","image_url":{"url":"u"}}]}]}`))
	f.Add([]byte(`{"model":"m","prompt":"complete me","max_tokens":4}`))
	f.Add([]byte(`{"model":"m","prompt":["a","b"]}`))
	f.Add([]byte(`{"model":"m","input":"embed me"}`))
	f.Add([]byte(`{"model":"m","input":["a","b","c"]}`))
	f.Add([]byte(`{"model":"m","query":"q","documents":["d1","d2"],"top_n":1}`))
	f.Add([]byte(`data: {"object":"chat.completion.chunk","choices":[{"index":0,"delta":{"role":"assistant","content":"x"},"finish_reason":null}]}`))
	f.Add([]byte(`data: [DONE]`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	for _, body := range requestSeeds {
		f.Add([]byte(body))
	}
	f.Add([]byte(oversizedOllamaChat))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequestDecoders(t, body)
		c := OpenAICodec{}
		for _, fam := range fuzzFamiliesOpenAI {
			req, err := c.DecodeRequest(fam, body)
			if err != nil {
				continue
			}
			enc, err := c.EncodeRequest(req)
			if err != nil {
				t.Fatalf("%s: accepted body failed to encode: %v", fam, err)
			}
			req2, err := c.DecodeRequest(fam, enc)
			if err != nil {
				t.Fatalf("%s: canonical encoding failed to re-decode: %v\nencoding: %s", fam, err, enc)
			}
			enc2, err := c.EncodeRequest(req2)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", fam, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: canonical encoding is not a fixed point:\n first  %s\n second %s", fam, enc, enc2)
			}
		}
		if ev, err := c.DecodeStreamEvent(FamilyChat, body); err == nil {
			if _, err := c.EncodeStreamEvent(FamilyChat, ev); err != nil {
				t.Fatalf("accepted stream event failed to encode: %v", err)
			}
		}
	})
}

// fuzzFamiliesOllama are the families the Ollama codec decodes.
var fuzzFamiliesOllama = []Family{FamilyChat, FamilyGenerate}

// FuzzIRDecodeOllama checks the Ollama codec never panics and that the
// canonical upstream encoding of any accepted body is decodable by the
// OpenAI codec (every Ollama request must be forwardable).
func FuzzIRDecodeOllama(f *testing.F) {
	f.Add([]byte(goldenOllamaChat))
	f.Add([]byte(goldenOllamaGenerate))
	f.Add([]byte(`{"model":"m","messages":[{"role":"user","content":"hi"}]}`))
	f.Add([]byte(`{"model":"m","prompt":"hi","images":["aGk="]}`))
	f.Add([]byte(`{"model":"m","messages":[{"role":"user","content":"hi","images":["aGk="]}],"stream":false}`))
	f.Add([]byte(`{"model":"m","created_at":"1970-01-01T00:00:01Z","message":{"role":"assistant","content":"x"},"done":false}`))
	f.Add([]byte(`{"model":"m","created_at":"1970-01-01T00:00:01Z","response":"x","done":true,"done_reason":"stop"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	for _, body := range requestSeeds {
		f.Add([]byte(body))
	}
	f.Add([]byte(oversizedOllamaChat))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequestDecoders(t, body)
		c := OllamaCodec{}
		for _, fam := range fuzzFamiliesOllama {
			req, err := c.DecodeRequest(fam, body)
			if err != nil {
				continue
			}
			enc, err := c.EncodeRequest(req)
			if err != nil {
				t.Fatalf("%s: accepted body failed to re-encode: %v", fam, err)
			}
			if _, err := c.DecodeRequest(fam, enc); err != nil {
				t.Fatalf("%s: re-encoding failed to decode: %v\nencoding: %s", fam, err, enc)
			}
			canonical, err := (OpenAICodec{}).EncodeRequest(req)
			if err != nil {
				t.Fatalf("%s: canonical upstream encoding: %v", fam, err)
			}
			if _, err := (OpenAICodec{}).DecodeRequest(FamilyChat, canonical); err != nil {
				t.Fatalf("%s: upstream cannot decode forwarded body: %v\nbody: %s", fam, err, canonical)
			}
			if ev, err := c.DecodeStreamEvent(fam, body); err == nil {
				if _, err := c.EncodeStreamEvent(fam, ev); err != nil {
					t.Fatalf("%s: accepted stream line failed to encode: %v", fam, err)
				}
			}
		}
	})
}
