package ir

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The fast chat codec is checked against encoding/json, its oracle:
// every encoder must render the bytes json.Marshal renders, and every
// decoder must return what json.Unmarshal returns, error included.
// Message's reflect-based halves (marshalReflect, unmarshalReflect)
// are the oracle for Message itself; the other types are compared
// with json.Marshal and json.Unmarshal directly.

// textPieces are the fragments random strings are built from: plain
// text, and every class of byte encoding/json escapes or replaces.
var textPieces = []string{
	"", "hello", " world", "<b>", "&amp;", `"q"`, `back\slash`, "/", "'",
	"\n\t\r\b\f", "\x00\x01\x1f\x7f", "é", "日本語", "\u2028\u2029", "🙂", "\ufffd",
	"\xff", "\xed\xa0\x80", "\xe2\x82",
}

func randText(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(4); n > 0; n-- {
		b.WriteString(textPieces[r.Intn(len(textPieces))])
	}
	return b.String()
}

// randFloat draws from the values whose formatting differs: zeros, the
// %f/%e cut-offs, extremes, and the unencodable NaN and infinities.
func randFloat(r *rand.Rand) float64 {
	fs := []float64{0, math.Copysign(0, -1), 0.7, 2, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789.125,
		1.5e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, -3.25, r.NormFloat64(), math.Inf(1), math.NaN()}
	return fs[r.Intn(len(fs))]
}

func randInt(r *rand.Rand) int64 {
	is := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, r.Int63(), -r.Int63()}
	return is[r.Intn(len(is))]
}

func randMessage(r *rand.Rand) Message {
	roles := []string{"user", "assistant", "system", "tool", ""}
	m := Message{Role: roles[r.Intn(len(roles))], Content: randText(r)}
	if r.Intn(3) == 0 {
		m.Role = randText(r)
	}
	if r.Intn(4) == 0 {
		for n := r.Intn(3); n >= 0; n-- {
			p := ContentPart{Type: randText(r), Text: randText(r)}
			if r.Intn(2) == 0 {
				p.ImageURL = &ImageURL{URL: randText(r)}
			}
			if r.Intn(2) == 0 {
				p.InputAudio = &InputAudio{Data: randText(r), Format: randText(r), Seconds: randFloat(r)}
			}
			m.Parts = append(m.Parts, p)
		}
	}
	return m
}

func randMessages(r *rand.Rand) []Message {
	if r.Intn(5) == 0 {
		return nil
	}
	ms := []Message{}
	for n := r.Intn(4); n > 0; n-- {
		ms = append(ms, randMessage(r))
	}
	return ms
}

func randRequest(r *rand.Rand) *ChatCompletionRequest {
	req := &ChatCompletionRequest{
		Model: randText(r), Messages: randMessages(r), Stream: r.Intn(2) == 0,
		MaxTokens: int(randInt(r)), MinTokens: int(randInt(r)), User: randText(r),
	}
	if r.Intn(2) == 0 {
		t := randFloat(r)
		req.Temperature = &t
	}
	if r.Intn(2) == 0 {
		seed := randInt(r)
		req.Seed = &seed
	}
	return req
}

func randUsage(r *rand.Rand) Usage {
	return Usage{PromptTokens: int(randInt(r)), CompletionTokens: int(randInt(r)), TotalTokens: int(randInt(r))}
}

func randChunk(r *rand.Rand) *ChatCompletionChunk {
	c := &ChatCompletionChunk{ID: randText(r), Object: randText(r), Created: randInt(r), Model: randText(r)}
	if r.Intn(5) != 0 {
		c.Choices = []DeltaChoice{}
		for n := r.Intn(3); n > 0; n-- {
			d := DeltaChoice{Index: int(randInt(r)), Delta: randMessage(r)}
			if r.Intn(2) == 0 {
				f := randText(r)
				d.FinishReason = &f
			}
			c.Choices = append(c.Choices, d)
		}
	}
	if r.Intn(2) == 0 {
		u := randUsage(r)
		c.Usage = &u
	}
	return c
}

func randResponse(r *rand.Rand) *ChatCompletionResponse {
	resp := &ChatCompletionResponse{ID: randText(r), Object: randText(r), Created: randInt(r), Model: randText(r), Usage: randUsage(r)}
	if r.Intn(5) != 0 {
		resp.Choices = []Choice{}
		for n := r.Intn(3); n > 0; n-- {
			resp.Choices = append(resp.Choices, Choice{Index: int(randInt(r)), Message: randMessage(r), FinishReason: randText(r)})
		}
	}
	return resp
}

// sameResult fails unless the two encodings or decodings agree: equal
// bytes, or errors with equal text.
func sameResult(t *testing.T, what string, got []byte, gerr error, want []byte, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got    %q\n oracle %q", what, got, want)
	}
}

// ollamaStreamOracle renders an event as the Ollama codec did through
// reflection: the struct each line is, marshalled by encoding/json.
func ollamaStreamOracle(f Family, ev *StreamEvent) ([]byte, error) {
	if ev.Chunk == nil {
		return nil, nil
	}
	c := ev.Chunk
	var delta Message
	var finish *string
	if len(c.Choices) > 0 {
		delta = c.Choices[0].Delta
		finish = c.Choices[0].FinishReason
	}
	done := ev.Done || finish != nil
	reason := "stop"
	if finish != nil && *finish != "" {
		reason = *finish
	}
	var prompt, eval int
	if c.Usage != nil {
		prompt, eval = c.Usage.PromptTokens, c.Usage.CompletionTokens
	}
	role := delta.Role
	if role == "" || done {
		role = "assistant"
	}
	if !done {
		reason, prompt, eval = "", 0, 0
	}
	created := ollamaCreatedAt(c.Created)
	var v interface{}
	if f == FamilyChat {
		v = OllamaChatChunk{Model: c.Model, CreatedAt: created, Message: OllamaMessage{Role: role, Content: delta.Content},
			Done: done, DoneReason: reason, PromptEvalCount: prompt, EvalCount: eval}
	} else {
		v = OllamaGenerateChunk{Model: c.Model, CreatedAt: created, Response: delta.Content,
			Done: done, DoneReason: reason, PromptEvalCount: prompt, EvalCount: eval}
	}
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// ollamaCreatedAt is the RFC 3339 created_at of a unix time.
func ollamaCreatedAt(created int64) string {
	return time.Unix(created, 0).UTC().Format(time.RFC3339)
}

// checkEncoders compares every fast encoder with encoding/json on the
// given values.
func checkEncoders(t *testing.T, req *ChatCompletionRequest, c *ChatCompletionChunk, resp *ChatCompletionResponse) {
	t.Helper()
	got, gerr := marshalChatRequest(req)
	want, werr := json.Marshal(req)
	sameResult(t, "request", got, gerr, want, werr)

	for _, m := range req.Messages {
		got, gerr := m.MarshalJSON()
		want, werr := m.marshalReflect()
		sameResult(t, "message", got, gerr, want, werr)
	}

	got, gerr = appendChunk(nil, c)
	want, werr = json.Marshal(c)
	sameResult(t, "chunk", got, gerr, want, werr)

	chunkJSON, chunkErr := want, werr
	for _, done := range []bool{false, true} {
		ev := &StreamEvent{Chunk: c, Done: done}
		got, gerr := OpenAICodec{}.EncodeStreamEvent(FamilyChat, ev)
		want := "data: " + string(chunkJSON) + "\n\n"
		if done {
			want += "data: [DONE]\n\n"
		}
		if (gerr == nil) != (chunkErr == nil) || (gerr == nil && string(got) != want) {
			t.Fatalf("sse frame: got %q (%v), want %q (%v)", got, gerr, want, chunkErr)
		}
		for _, f := range []Family{FamilyChat, FamilyGenerate} {
			got, gerr := OllamaCodec{}.EncodeStreamEvent(f, ev)
			want, werr := ollamaStreamOracle(f, ev)
			sameResult(t, "ollama "+string(f)+" line", got, gerr, want, werr)
		}
	}

	got, gerr = marshalChatResponse(resp)
	want, werr = json.Marshal(resp)
	sameResult(t, "response", got, gerr, want, werr)

	rec := httptest.NewRecorder()
	WriteJSON(rec, 200, *resp)
	var enc bytes.Buffer
	json.NewEncoder(&enc).Encode(resp)
	sameResult(t, "WriteJSON", rec.Body.Bytes(), nil, enc.Bytes(), nil)

	for _, f := range []Family{FamilyChat, FamilyGenerate} {
		got, gerr := OllamaCodec{}.EncodeResponse(&Response{Family: f, Chat: resp})
		var content, reason string
		if len(resp.Choices) > 0 {
			content, reason = resp.Choices[0].Message.Content, resp.Choices[0].FinishReason
		}
		fr := &reason
		want, werr := ollamaStreamOracle(f, &StreamEvent{Done: true, Chunk: &ChatCompletionChunk{
			Model: resp.Model, Created: resp.Created, Choices: []DeltaChoice{{Delta: Message{Content: content}, FinishReason: fr}},
			Usage: &resp.Usage,
		}})
		sameResult(t, "ollama "+string(f)+" response", got, gerr, bytes.TrimSuffix(want, []byte("\n")), werr)
	}
}

func TestCodecEncodeMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		checkEncoders(t, randRequest(r), randChunk(r), randResponse(r))
	}
}

// FuzzChatCodecEncode builds IR values from the fuzzer's fields and
// checks every fast encoder against encoding/json.
func FuzzChatCodecEncode(f *testing.F) {
	f.Add("llama3.2:3b", "user", "hello <world> & \"you\"", int64(1700000000), math.Float64bits(0.7), int64(42), uint8(0))
	f.Add("m\u2028", "", "\xff\x00", int64(-62135596801), math.Float64bits(1e-7), int64(math.MinInt64), uint8(0xff))
	f.Add("", "assistant", "", int64(253402300800), math.Float64bits(math.NaN()), int64(0), uint8(0x0f))
	f.Fuzz(func(t *testing.T, model, role, content string, created int64, tempBits uint64, seed int64, flags uint8) {
		temp := math.Float64frombits(tempBits)
		msg := Message{Role: role, Content: content}
		if flags&1 != 0 {
			msg.Parts = []ContentPart{{Type: "text", Text: content}, {Type: "input_audio", InputAudio: &InputAudio{Data: model, Seconds: temp}}}
		}
		req := &ChatCompletionRequest{Model: model, Messages: []Message{msg}, Stream: flags&2 != 0, MaxTokens: int(seed), User: role}
		if flags&4 != 0 {
			req.Temperature, req.Seed = &temp, &seed
		}
		finish := role
		c := &ChatCompletionChunk{ID: content, Object: "chat.completion.chunk", Created: created, Model: model,
			Choices: []DeltaChoice{{Index: int(seed), Delta: msg}}}
		if flags&8 != 0 {
			c.Choices[0].FinishReason = &finish
			c.Usage = &Usage{PromptTokens: int(seed), CompletionTokens: int(created), TotalTokens: 3}
		}
		resp := &ChatCompletionResponse{ID: content, Object: "chat.completion", Created: created, Model: model,
			Choices: []Choice{{Message: msg, FinishReason: finish}}, Usage: Usage{PromptTokens: int(seed)}}
		checkEncoders(t, req, c, resp)
	})
}

// decodeSeeds are bodies of every shape the decoders meet: canonical
// encodings, client key orders and whitespace, and each case that must
// fall back to encoding/json.
var decodeSeeds = []string{
	goldenOpenAIChat,
	`{"max_tokens":64,"messages":[{"content":"hot 3: lorem ipsum","role":"user"}],"model":"llama3.2:3b","seed":7,"stream":true}`,
	` { "model" : "m" , "messages" : [ { "role" : "user" , "content" : "hi" } ] , "min_tokens" : 2 , "user" : "u" } `,
	`{"model":"m\u00e9\/\ud83d\ude42\ud800x\udc00\\\"\b\f\n\r\t","messages":null}`,
	`{"model":"m","messages":[null,{"role":null,"content":null},{}]}`,
	`{"model":"m","messages":[]}`,
	`{"model":"m","messages":[{"role":"user","content":[{"type":"text","text":"a"},{"type":"image_url","image_url":{"url":"u"}}]}]}`,
	`{"model":"m","messages":[{"role":"user","content":5}]}`,
	`{"model":"m","messages":[{"role":"user","content":"hi","name":"x"}]}`,
	`{"Model":"m","messages":[{"Role":"user","content":"hi"}]}`,
	`{"mod\u0065l":"m"}`,
	`{"model":"m","model":"n"}`,
	`{"model":"m","extra":1}`,
	`{"model":"m","max_tokens":1.0}`,
	`{"model":"m","max_tokens":1e2}`,
	`{"model":"m","max_tokens":-0,"seed":-0}`,
	`{"model":"m","max_tokens":01}`,
	`{"model":"m","seed":9223372036854775807}`,
	`{"model":"m","seed":9223372036854775808}`,
	`{"model":"m","seed":-9223372036854775808}`,
	`{"model":"m","temperature":1e400}`,
	`{"model":"m","temperature":-0.0,"stream":null,"max_tokens":null,"seed":null,"temperature":null}`,
	`{"model":"m","temperature":0.7e-3,"stream":false}`,
	`{"model":"m","stream":"true"}`,
	`{"model":"m"} x`,
	`{"model":"m",}`,
	`{"model":"m"`,
	`{"model":"m\x01"}`,
	"{\"model\":\"\xff\xfe\"}",
	`{"model":"a\u0000b\u2028"}`,
	`{"model":"\u12"}`,
	`{"model":"\x"}`,
	`[]`, `null`, `"str"`, ``, `{}`, "{}\x00", `{"model":tru}`,
	`{"id":"c","object":"chat.completion.chunk","created":1,"model":"m","choices":[{"index":0,"delta":{"role":"assistant","content":"x"},"finish_reason":null}]}`,
	`{"id":"c","object":"chat.completion.chunk","created":1,"model":"m","choices":[{"index":0,"delta":{"role":"","content":""},"finish_reason":"length"}],"usage":{"prompt_tokens":3,"completion_tokens":4,"total_tokens":7}}`,
	`{"id":"c","choices":null,"usage":null}`,
	`{"id":"c","choices":[null,{"delta":null}]}`,
	`{"id":"c","choices":[{"index":0,"delta":{"content":"a","content":"b"}}]}`,
	`{"id":"c","usage":{"prompt_tokens":1,"prompt_tokens":2}}`,
	`{"id":"c","created":1.5}`,
	`{"id":"r","object":"chat.completion","created":5,"model":"m","choices":[{"index":0,"message":{"role":"assistant","content":"hi"},"finish_reason":"stop"}],"usage":{"prompt_tokens":1,"completion_tokens":2,"total_tokens":3}}`,
	`{"id":"r","choices":[null],"usage":null}`,
	`{"role":"user","content":"hot 3: lorem ipsum"}`,
	` { "content" : "hi" , "role" : "assistant" } `,
	`{"role":null,"content":null}`,
	`{"role":"user"}`,
	`{"content":"a\u003cb\u0026\n\"q\"\ud83d\ude42\ud800"}`,
	`{"role":"user","role":"system","content":"hi"}`,
	`{"role":"user","content":"a","content":"b"}`,
	`{"Role":"user","content":"hi"}`,
	`{"role":"user","content":[{"type":"text","text":"a"},{"type":"text","text":"b"}]}`,
	`{"role":"user","content":[]}`,
	`{"role":"user","content":{}}`,
	`{"role":1,"content":"hi"}`,
}

// checkDecoders compares every fast decoder with encoding/json on body.
func checkDecoders(t *testing.T, body []byte) {
	t.Helper()
	diff := func(what string, got interface{}, gerr error, want interface{}, werr error) {
		t.Helper()
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s of %q: error %v, oracle %v", what, body, gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s of %q:\n got    %#v\n oracle %#v", what, body, got, want)
		}
	}
	var m, wm Message
	gerr := m.UnmarshalJSON(body)
	werr := wm.unmarshalReflect(body)
	diff("Message", m, gerr, wm, werr)

	req, gerr := decodeChat(FamilyChat, body)
	wreq := new(ChatCompletionRequest)
	diff("request", &req.chat, gerr, wreq, json.Unmarshal(body, wreq))

	resp, gerr := decodeChatResponse(body)
	wresp := new(ChatCompletionResponse)
	diff("response", resp, gerr, wresp, json.Unmarshal(body, wresp))

	c, gerr := decodeChunk(body)
	wc := new(ChatCompletionChunk)
	diff("chunk", c, gerr, wc, json.Unmarshal(body, wc))

	event := append([]byte("data: "), body...)
	for _, f := range []Family{FamilyChat, FamilyGenerate} {
		got, done, gerr := NewReframer(OllamaCodec{}, f).AppendFrames(nil, event)
		var want []byte
		ev, werr := OpenAICodec{}.DecodeStreamEvent(f, event)
		if werr == nil {
			want, werr = ollamaStreamOracle(f, ev)
		}
		diff("ollama "+string(f)+" reframe", got, gerr, want, werr)
		if gerr == nil && done != ev.Done {
			t.Fatalf("reframe of %q: done %v, oracle %v", body, done, ev.Done)
		}
	}
}

func TestCodecDecodeMatchesJSON(t *testing.T) {
	for _, body := range decodeSeeds {
		checkDecoders(t, []byte(body))
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		for _, v := range []interface{}{randRequest(r), randChunk(r), randResponse(r)} {
			if body, err := json.Marshal(v); err == nil {
				checkDecoders(t, body)
			}
		}
		// A message on its own: json.Unmarshal of the bodies above
		// reaches Message.UnmarshalJSON, fast path included, on both
		// sides; this compares it with unmarshalReflect alone.
		if body, err := randMessage(r).marshalReflect(); err == nil {
			checkDecoders(t, body)
		}
	}
}

// TestEncodeErrorWrapped: a value only encoding/json can refuse (a NaN)
// keeps the codec's error wrap on the fast path's fallback.
func TestEncodeErrorWrapped(t *testing.T) {
	nan := math.NaN()
	_, err := OpenAICodec{}.EncodeRequest(&Request{Family: FamilyChat, Chat: &ChatCompletionRequest{Model: "m", Temperature: &nan}})
	if err == nil || !strings.HasPrefix(err.Error(), "ir: encoding chat request: json: unsupported value: NaN") {
		t.Fatalf("EncodeRequest(NaN temperature) error = %v", err)
	}
	msg := Message{Role: "user", Parts: []ContentPart{{Type: "input_audio", InputAudio: &InputAudio{Seconds: nan}}}}
	_, err = OpenAICodec{}.EncodeResponse(&Response{Family: FamilyChat, Chat: &ChatCompletionResponse{Choices: []Choice{{Message: msg}}}})
	if err == nil || !strings.HasPrefix(err.Error(), "ir: encoding chat response: ") {
		t.Fatalf("EncodeResponse(NaN audio seconds) error = %v", err)
	}
}

// FuzzChatCodecDecode checks every fast decoder against encoding/json
// on arbitrary bodies.
func FuzzChatCodecDecode(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(checkDecoders)
}

// TestSSEReader pins the event boundaries: lines joined by "\n", CR
// and keep-alive blank lines dropped, an over-long line read whole.
func TestSSEReader(t *testing.T) {
	long := strings.Repeat("x", 10000)
	in := "\n\r\nevent: a\r\ndata: 1\n\ndata: " + long + "\n\ndata: [DONE]\n\ndata: cut"
	r := NewSSEReader(strings.NewReader(in))
	for _, want := range []string{"event: a\ndata: 1", "data: " + long, "data: [DONE]"} {
		got, err := r.Next()
		if err != nil || string(got) != want {
			t.Fatalf("Next = %.40q, %v; want %.40q", got, err, want)
		}
	}
	if got, err := r.Next(); len(got) != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("partial last line: Next = %q, %v", got, err)
	}
}

// TestCodecAllocBudget pins the allocations of the hot-path codec
// calls. A rise means a change put reflection or a copy back on a path
// every chat request or stream token takes.
func TestCodecAllocBudget(t *testing.T) {
	body := []byte(goldenOpenAIChat)
	// perfbench's frontdoor-hot shapes.
	ollamaChat, generate := []byte(requestSeeds[2]), []byte(requestSeeds[3])
	embeddings, rerank := []byte(requestSeeds[4]), []byte(requestSeeds[5])
	chunk := &ChatCompletionChunk{ID: "chatcmpl-n1-7", Object: "chat.completion.chunk", Created: 1700000000,
		Model: "llama3.2:3b", Choices: []DeltaChoice{{Delta: Message{Content: " token"}}}}
	sw := NewSSEWriter(io.Discard)
	sw.WriteEvent(&StreamEvent{Chunk: chunk})
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		// The request with its payload, temperature and seed; one block
		// of strings; the message slice.
		{"decode canonical chat request", 3, func() { OpenAICodec{}.DecodeRequest(FamilyChat, body) }},
		// The model string.
		{"check canonical chat request", 1, func() { OpenAICodec{}.Check(FamilyChat, body) }},
		// The request with its payload, one block of strings, the list.
		{"decode embeddings request", 3, func() { OpenAICodec{}.DecodeRequest(FamilyEmbeddings, embeddings) }},
		{"decode rerank request", 3, func() { OpenAICodec{}.DecodeRequest(FamilyRerank, rerank) }},
		// The Ollama request with its options, its strings, its message
		// slice; the canonical request with its payload, its messages.
		{"decode ollama chat request", 5, func() { OllamaCodec{}.DecodeRequest(FamilyChat, ollamaChat) }},
		{"decode ollama generate request", 4, func() { OllamaCodec{}.DecodeRequest(FamilyGenerate, generate) }},
		{"encode chunk frame", 1, func() { OpenAICodec{}.EncodeStreamEvent(FamilyChat, &StreamEvent{Chunk: chunk}) }},
		{"SSEWriter event", 0, func() { sw.WriteEvent(&StreamEvent{Chunk: chunk}) }},
	} {
		got := testing.AllocsPerRun(100, c.run)
		t.Logf("%s: %v allocations", c.name, got)
		if got > c.max {
			t.Errorf("%s: %v allocations, budget %v", c.name, got, c.max)
		}
	}
}
