package ir

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// The chat family's hot-path encoders append straight into a byte
// slice instead of walking the value through reflection. Each is
// byte-identical to json.Marshal of the same value: field order,
// omitempty, null for nil pointers and slices, HTML escaping and float
// formatting all follow encoding/json, which stays the oracle the
// differential tests and fuzz targets check against. A value the
// encoders cannot render (a NaN or infinite float) marks the writer
// bad, and the caller hands the value to encoding/json for its error;
// so does a multimodal message, which only encoding/json renders.

// text is what a JSON string renders from: a Go string, or bytes still
// borrowed from the frame they were decoded out of.
type text interface{ ~string | ~[]byte }

// appendString appends s as a JSON string exactly as encoding/json
// renders it with HTML escaping on: <, > and & become \u003c, \u003e
// and \u0026, invalid UTF-8 becomes \ufffd, and U+2028 and U+2029 are
// escaped.
func appendString[S text](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// writer accumulates one encoding; bad records a value encoding/json
// would refuse.
type writer struct {
	b   []byte
	bad bool
}

func (w *writer) raw(s string)   { w.b = append(w.b, s...) }
func (w *writer) str(s string)   { w.b = appendString(w.b, s) }
func (w *writer) int(n int64)    { w.b = strconv.AppendInt(w.b, n, 10) }
func (w *writer) field(k string) { w.b = append(append(append(w.b, ",\""...), k...), "\":"...) }
func (w *writer) first(k string) { w.b = append(append(append(w.b, "{\""...), k...), "\":"...) }
func (w *writer) end()           { w.b = append(w.b, '}') }
func (w *writer) optStr(k, v string) {
	if v != "" {
		w.field(k)
		w.str(v)
	}
}
func (w *writer) optInt(k string, v int64) {
	if v != 0 {
		w.field(k)
		w.int(v)
	}
}

// float renders f as encoding/json does: %f-style between 1e-6 and
// 1e21, exponent form outside, with a one-digit negative exponent
// unpadded.
func (w *writer) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.b = b
}

// message renders m as Message.MarshalJSON does. A multimodal message
// (Parts set) is left to encoding/json: no hot path sends one.
func (w *writer) message(m *Message) {
	if len(m.Parts) > 0 {
		w.bad = true
		return
	}
	w.first("role")
	w.str(m.Role)
	w.field("content")
	w.str(m.Content)
	w.end()
}

func (w *writer) usage(u *Usage) {
	w.first("prompt_tokens")
	w.int(int64(u.PromptTokens))
	w.field("completion_tokens")
	w.int(int64(u.CompletionTokens))
	w.field("total_tokens")
	w.int(int64(u.TotalTokens))
	w.end()
}

// chatRequest renders r as json.Marshal(r) does.
func (w *writer) chatRequest(r *ChatCompletionRequest) {
	w.first("model")
	w.str(r.Model)
	w.field("messages")
	if r.Messages == nil {
		w.raw("null")
	} else {
		w.b = append(w.b, '[')
		for i := range r.Messages {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.message(&r.Messages[i])
		}
		w.b = append(w.b, ']')
	}
	if r.Stream {
		w.raw(`,"stream":true`)
	}
	w.optInt("max_tokens", int64(r.MaxTokens))
	w.optInt("min_tokens", int64(r.MinTokens))
	if r.Temperature != nil {
		w.field("temperature")
		w.float(*r.Temperature)
	}
	if r.Seed != nil {
		w.field("seed")
		w.int(*r.Seed)
	}
	w.optStr("user", r.User)
	w.end()
}

// chunk renders c as json.Marshal(c) does.
func (w *writer) chunk(c *ChatCompletionChunk) {
	w.head(c.ID, c.Object, c.Created, c.Model)
	if c.Choices == nil {
		w.raw("null")
	} else {
		w.b = append(w.b, '[')
		for i := range c.Choices {
			ch := &c.Choices[i]
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.first("index")
			w.int(int64(ch.Index))
			w.field("delta")
			w.message(&ch.Delta)
			w.field("finish_reason")
			if ch.FinishReason == nil {
				w.raw("null")
			} else {
				w.str(*ch.FinishReason)
			}
			w.end()
		}
		w.b = append(w.b, ']')
	}
	if c.Usage != nil {
		w.field("usage")
		w.usage(c.Usage)
	}
	w.end()
}

// chatResponse renders r as json.Marshal(r) does.
func (w *writer) chatResponse(r *ChatCompletionResponse) {
	w.head(r.ID, r.Object, r.Created, r.Model)
	if r.Choices == nil {
		w.raw("null")
	} else {
		w.b = append(w.b, '[')
		for i := range r.Choices {
			ch := &r.Choices[i]
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.first("index")
			w.int(int64(ch.Index))
			w.field("message")
			w.message(&ch.Message)
			w.field("finish_reason")
			w.str(ch.FinishReason)
			w.end()
		}
		w.b = append(w.b, ']')
	}
	w.field("usage")
	w.usage(&r.Usage)
	w.end()
}

// head renders the members chunks and responses open with, up to the
// "choices" value.
func (w *writer) head(id, object string, created int64, model string) {
	w.first("id")
	w.str(id)
	w.field("object")
	w.str(object)
	w.field("created")
	w.int(created)
	w.field("model")
	w.str(model)
	w.field("choices")
}

// appendOllamaLine renders one Ollama /api/chat (f == FamilyChat) or
// /api/generate line as json.Marshal renders the OllamaChatChunk or
// OllamaGenerateChunk holding these values, with no images: an empty
// role renders as "assistant", and on a done line an empty reason
// renders as "stop". A line that is not done carries no reason or
// counts. created is unix seconds, rendered as RFC 3339 in UTC.
func appendOllamaLine[S text](b []byte, f Family, model S, created int64, role, content S, done bool, reason S, promptTok, evalTok int) []byte {
	b = append(b, `{"model":`...)
	b = appendString(b, model)
	b = append(b, `,"created_at":"`...)
	b = time.Unix(created, 0).UTC().AppendFormat(b, time.RFC3339)
	if f == FamilyChat {
		b = append(b, `","message":{"role":`...)
		if len(role) == 0 {
			b = append(b, `"assistant"`...)
		} else {
			b = appendString(b, role)
		}
		b = append(b, `,"content":`...)
		b = appendString(b, content)
		b = append(b, '}')
	} else {
		b = append(b, `","response":`...)
		b = appendString(b, content)
	}
	if !done {
		return append(b, `,"done":false}`...)
	}
	b = append(b, `,"done":true,"done_reason":`...)
	if len(reason) == 0 {
		b = append(b, `"stop"`...)
	} else {
		b = appendString(b, reason)
	}
	if promptTok != 0 {
		b = strconv.AppendInt(append(b, `,"prompt_eval_count":`...), int64(promptTok), 10)
	}
	if evalTok != 0 {
		b = strconv.AppendInt(append(b, `,"eval_count":`...), int64(evalTok), 10)
	}
	return append(b, '}')
}

// marshalChatRequest is json.Marshal(r).
func marshalChatRequest(r *ChatCompletionRequest) ([]byte, error) {
	if r == nil {
		return json.Marshal(r)
	}
	n := 96 + len(r.Model) + len(r.User)
	for i := range r.Messages {
		n += 32 + len(r.Messages[i].Role) + len(r.Messages[i].Content)
	}
	w := writer{b: make([]byte, 0, n)}
	if w.chatRequest(r); w.bad {
		return json.Marshal(r)
	}
	return w.b, nil
}

// marshalChatResponse is json.Marshal(r).
func marshalChatResponse(r *ChatCompletionResponse) ([]byte, error) {
	if r == nil {
		return json.Marshal(r)
	}
	// The fixed text around the strings: 80 bytes of head, 80 per
	// choice, 80 of usage, and a byte for WriteJSON's newline.
	n := 161 + len(r.ID) + len(r.Model)
	for i := range r.Choices {
		n += 80 + len(r.Choices[i].Message.Content)
	}
	w := writer{b: make([]byte, 0, n)}
	if w.chatResponse(r); w.bad {
		return json.Marshal(r)
	}
	return w.b, nil
}

// appendChunk appends json.Marshal(c) to dst.
func appendChunk(dst []byte, c *ChatCompletionChunk) ([]byte, error) {
	w := writer{b: dst}
	if w.chunk(c); w.bad {
		b, err := json.Marshal(c)
		return append(dst, b...), err
	}
	return w.b, nil
}
