package ir

import (
	"encoding/json"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The chat family's hot-path decoders read a body in one pass, without
// reflection or intermediate copies. They recognise only the shapes
// the front door and the engines actually exchange: an object whose
// keys are exact field names, each at most once, with values of the
// field's own kind or null. Anything else — a key that would match only
// by case folding, an escaped or unknown key, a duplicate, a number
// where a string belongs, a multimodal content array, a syntax error —
// makes the scanner bad, and the caller hands the untouched body to
// encoding/json. So a decode returns exactly what json.Unmarshal would,
// error included; encoding/json is both the oracle and the fallback.

// scanner reads one JSON document. bad is set at the first input the
// fast path does not recognise; every method is then a no-op that
// reports failure. arena holds unescaped string bytes.
type scanner struct {
	b     []byte
	i     int
	bad   bool
	arena []byte
}

func (s *scanner) reset(b []byte) {
	s.b, s.i, s.bad, s.arena = b, 0, false, s.arena[:0]
}

func (s *scanner) fail() bool {
	s.bad = true
	return false
}

// peek skips whitespace and returns the next byte, 0 at the end or
// once the scanner is bad.
func (s *scanner) peek() byte {
	if s.bad {
		return 0
	}
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// lit consumes the literal word.
func (s *scanner) lit(word string) bool {
	if s.peek() == 0 || len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return s.fail()
	}
	s.i += len(word)
	return true
}

// null consumes a null literal if one comes next.
func (s *scanner) null() bool {
	if s.peek() != 'n' {
		return false
	}
	return s.lit("null")
}

// done reports whether the document ended cleanly after its value.
func (s *scanner) done() bool {
	if s.peek(); s.bad || s.i != len(s.b) {
		return s.fail()
	}
	return true
}

// member advances to the next member of an object — its opening
// brace first when n, the count of members already read, is 0 — and
// returns the member's key. ok is false at the closing brace, and on
// failure with s.bad set. Keys must be plain: an escape sends the
// document to encoding/json, whose key matching is not byte equality.
// A key that is no field name of the fast decoders returns as "".
func (s *scanner) member(n int) (key string, ok bool) {
	c := s.peek()
	if n == 0 {
		if c != '{' {
			return "", s.fail()
		}
		s.i++
		if c = s.peek(); c == '}' {
			s.i++
			return "", false
		}
	} else {
		switch c {
		case '}':
			s.i++
			return "", false
		case ',':
			s.i++
			c = s.peek()
		default:
			return "", s.fail()
		}
	}
	if c != '"' {
		return "", s.fail()
	}
	start := s.i + 1
	for s.i = start; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			k := s.b[start:s.i]
			s.i++
			if s.peek() != ':' {
				return "", s.fail()
			}
			s.i++
			return fieldName(k), true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return "", s.fail()
		}
	}
	return "", s.fail()
}

// fieldName returns the known field name equal to k, or "" for any
// other key, without allocating.
func fieldName(k []byte) string {
	for _, name := range fieldNames {
		if string(k) == name {
			return name
		}
	}
	return ""
}

// fieldNames are every key the fast decoders accept.
var fieldNames = [...]string{
	"model", "messages", "stream", "max_tokens", "min_tokens", "temperature", "seed", "user",
	"role", "content", "id", "object", "created", "choices", "usage", "index", "delta",
	"message", "finish_reason", "prompt_tokens", "completion_tokens", "total_tokens",
	"input", "query", "documents", "top_n", "prompt", "system", "options", "num_predict",
}

// once marks field bit in seen and fails on a repeat: encoding/json
// merges repeated keys in ways the fast path does not reproduce.
func (s *scanner) once(seen *uint32, bit uint32) bool {
	if *seen&bit != 0 {
		return s.fail()
	}
	*seen |= bit
	return true
}

// element advances to the next element of an array, as member does
// for objects; ok is false at the closing bracket or on failure.
func (s *scanner) element(n int) bool {
	c := s.peek()
	if n == 0 {
		if c != '[' {
			return s.fail()
		}
		s.i++
		if s.peek() == ']' {
			s.i++
			return false
		}
		return !s.bad
	}
	switch c {
	case ',':
		s.i++
		return true
	case ']':
		s.i++
		return false
	}
	return s.fail()
}

// str consumes a string and returns its decoded bytes: a slice of the
// document when the string holds no escapes and is valid UTF-8, else a
// slice of the arena holding what encoding/json would decode it to.
func (s *scanner) str() []byte {
	if s.peek() != '"' {
		s.fail()
		return nil
	}
	start := s.i + 1
	escaped, ascii := false, true
	i := start
	for ; i < len(s.b); i++ {
		c := s.b[i]
		if c == '"' {
			break
		}
		if c < ' ' {
			s.fail()
			return nil
		}
		if c == '\\' {
			escaped = true
			i++
			if i < len(s.b) && s.b[i] == 'u' {
				if getu4(s.b[i-1:]) < 0 {
					s.fail()
					return nil
				}
				i += 4
			} else if i >= len(s.b) || !validEscape(s.b[i]) {
				s.fail()
				return nil
			}
		} else if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if i >= len(s.b) {
		s.fail()
		return nil
	}
	s.i = i + 1
	raw := s.b[start:i]
	if !escaped && (ascii || utf8.Valid(raw)) {
		return raw
	}
	n := len(s.arena)
	s.arena = unquote(s.arena, raw)
	return s.arena[n:len(s.arena):len(s.arena)]
}

func validEscape(c byte) bool {
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return true
	}
	return false
}

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote appends the decoded contents of a scanned (so well-formed)
// string literal's body to dst, as encoding/json decodes it: escapes
// resolved, an unpaired surrogate and each invalid UTF-8 byte replaced
// by U+FFFD.
func unquote(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				dst, r = append(dst, '\b'), r+2
			case 'f':
				dst, r = append(dst, '\f'), r+2
			case 'n':
				dst, r = append(dst, '\n'), r+2
			case 'r':
				dst, r = append(dst, '\r'), r+2
			case 't':
				dst, r = append(dst, '\t'), r+2
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						dst, r = utf8.AppendRune(dst, dec), r+6
						break
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
			default: // '"', '\\', '/'
				dst, r = append(dst, e), r+2
			}
		case c < utf8.RuneSelf:
			dst, r = append(dst, c), r+1
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst, r = utf8.AppendRune(dst, rr), r+size
		}
	}
	return dst
}

// text consumes a string and returns it as a Go string.
func (s *scanner) text() string { return intern(s.str()) }

// intern returns b as a string. Values that recur on every request
// (roles, object kinds, finish reasons) come back as constants instead
// of fresh allocations.
func intern(b []byte) string {
	if s, ok := constant(b); ok {
		return s
	}
	return string(b)
}

// constant returns the constant intern keeps equal to b, if any.
func constant(b []byte) (string, bool) {
	for _, c := range constants {
		if string(b) == c {
			return c, true
		}
	}
	return "", false
}

var constants = [...]string{"", "user", "assistant", "system", "chat.completion.chunk", "chat.completion", "stop", "length"}

// number consumes a JSON number and returns its literal, failing on
// anything the JSON grammar rejects.
func (s *scanner) number() []byte {
	if s.peek() == 0 {
		s.fail()
		return nil
	}
	start, i := s.i, s.i
	if i < len(s.b) && s.b[i] == '-' {
		i++
	}
	digits := func() int {
		n := 0
		for i < len(s.b) && s.b[i] >= '0' && s.b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	switch n := digits(); {
	case n == 0, n > 1 && s.b[i-n] == '0':
		s.fail()
		return nil
	}
	if i < len(s.b) && s.b[i] == '.' {
		i++
		if digits() == 0 {
			s.fail()
			return nil
		}
	}
	if i < len(s.b) && (s.b[i] == 'e' || s.b[i] == 'E') {
		i++
		if i < len(s.b) && (s.b[i] == '+' || s.b[i] == '-') {
			i++
		}
		if digits() == 0 {
			s.fail()
			return nil
		}
	}
	s.i = i
	return s.b[start:i]
}

// integer consumes a number that encoding/json would store in an
// integer of the given bit size: no fraction or exponent, and in
// range.
func (s *scanner) integer(bits int) int64 {
	lit := s.number()
	if s.bad {
		return 0
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' || n > (limit-uint64(c-'0'))/10 {
			s.fail()
			return 0
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		return -int64(n)
	}
	return int64(n)
}

// float consumes a number as encoding/json stores it in a float64.
func (s *scanner) float() float64 {
	lit := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.fail()
	}
	return f
}

// boolean consumes true or false.
func (s *scanner) boolean() bool {
	switch s.peek() {
	case 't':
		return s.lit("true")
	case 'f':
		s.lit("false")
		return false
	}
	return s.fail()
}

// message decodes one Message as Message.UnmarshalJSON does, for a
// string or null content.
func (s *scanner) message(m *Message) {
	role, content := s.messageBytes()
	m.Role, m.Content = intern(role), intern(content)
}

// messageBytes decodes a Message object, or null, to its role and
// content bytes.
func (s *scanner) messageBytes() (role, content []byte) {
	if s.null() {
		return nil, nil
	}
	var seen uint32
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return role, content
		}
		switch key {
		case "role":
			if s.once(&seen, 1) && !s.null() {
				role = s.str()
			}
		case "content":
			if s.once(&seen, 2) && !s.null() {
				content = s.str()
			}
		default:
			s.fail()
		}
	}
}

// usage decodes a Usage object into u.
func (s *scanner) usage(u *Usage) {
	var seen uint32
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return
		}
		var dst *int
		var bit uint32
		switch key {
		case "prompt_tokens":
			dst, bit = &u.PromptTokens, 1
		case "completion_tokens":
			dst, bit = &u.CompletionTokens, 2
		case "total_tokens":
			dst, bit = &u.TotalTokens, 4
		default:
			s.fail()
			return
		}
		if s.once(&seen, bit) && !s.null() {
			*dst = int(s.integer(strconv.IntSize))
		}
	}
}

// chatResponse decodes a ChatCompletionResponse into the zero value r.
func (s *scanner) chatResponse(r *ChatCompletionResponse) {
	var seen uint32
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return
		}
		if !s.head(key, &seen, &r.ID, &r.Object, &r.Created, &r.Model) {
			switch key {
			case "choices":
				if s.once(&seen, 1<<4) && !s.null() {
					r.Choices = s.choices()
				}
			case "usage":
				if s.once(&seen, 1<<5) && !s.null() {
					s.usage(&r.Usage)
				}
			default:
				s.fail()
			}
		}
		if s.bad {
			return
		}
	}
}

// head decodes the members chunks and responses share, reporting
// whether key was one of them.
func (s *scanner) head(key string, seen *uint32, id, object *string, created *int64, model *string) bool {
	var dst *string
	switch key {
	case "id":
		dst = id
		s.once(seen, 1<<0)
	case "object":
		dst = object
		s.once(seen, 1<<1)
	case "model":
		dst = model
		s.once(seen, 1<<3)
	case "created":
		if s.once(seen, 1<<2) && !s.null() {
			*created = s.integer(64)
		}
		return true
	default:
		return false
	}
	if !s.bad && !s.null() {
		*dst = s.text()
	}
	return true
}

func (s *scanner) choices() []Choice {
	var small [2]Choice
	out := small[:0]
	for n := 0; s.element(n); n++ {
		out = append(out, Choice{})
		if s.null() {
			continue
		}
		c := &out[n]
		var seen uint32
		for m := 0; ; m++ {
			key, ok := s.member(m)
			if !ok {
				break
			}
			switch key {
			case "index":
				if s.once(&seen, 1) && !s.null() {
					c.Index = int(s.integer(strconv.IntSize))
				}
			case "message":
				if s.once(&seen, 2) {
					s.message(&c.Message)
				}
			case "finish_reason":
				if s.once(&seen, 4) && !s.null() {
					c.FinishReason = s.text()
				}
			default:
				s.fail()
			}
		}
	}
	if s.bad {
		return nil
	}
	return append(make([]Choice, 0, len(out)), out...)
}

// chunkView is a decoded ChatCompletionChunk whose strings are still
// bytes, borrowed from the frame or the scanner's arena: enough to
// re-encode the chunk in another protocol without allocating.
type chunkView struct {
	id, object, model []byte
	created           int64
	choices           []deltaView
	choicesSet        bool // the chunk's Choices is non-nil
	usage             Usage
	usageSet          bool // the chunk's Usage is non-nil
}

// deltaView is one DeltaChoice of a chunkView.
type deltaView struct {
	index         int
	role, content []byte
	finish        []byte
	finishSet     bool // FinishReason is non-nil
}

// chunk decodes a ChatCompletionChunk into v, reusing v's choices.
func (s *scanner) chunk(v *chunkView) {
	*v = chunkView{choices: v.choices[:0]}
	var seen uint32
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return
		}
		var dst *[]byte
		switch key {
		case "id":
			dst = &v.id
			s.once(&seen, 1<<0)
		case "object":
			dst = &v.object
			s.once(&seen, 1<<1)
		case "model":
			dst = &v.model
			s.once(&seen, 1<<3)
		case "created":
			if s.once(&seen, 1<<2) && !s.null() {
				v.created = s.integer(64)
			}
		case "choices":
			if s.once(&seen, 1<<4) && !s.null() {
				v.choicesSet = true
				for i := 0; s.element(i); i++ {
					v.choices = append(v.choices, deltaView{})
					s.delta(&v.choices[i])
				}
			}
		case "usage":
			if s.once(&seen, 1<<5) && !s.null() {
				v.usageSet = true
				s.usage(&v.usage)
			}
		default:
			s.fail()
		}
		if dst != nil && !s.bad && !s.null() {
			*dst = s.str()
		}
		if s.bad {
			return
		}
	}
}

func (s *scanner) delta(d *deltaView) {
	if s.null() {
		return
	}
	var seen uint32
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return
		}
		switch key {
		case "index":
			if s.once(&seen, 1) && !s.null() {
				d.index = int(s.integer(strconv.IntSize))
			}
		case "delta":
			if s.once(&seen, 2) {
				d.role, d.content = s.messageBytes()
			}
		case "finish_reason":
			if s.once(&seen, 4) && !s.null() {
				d.finish, d.finishSet = s.str(), true
			}
		default:
			s.fail()
		}
	}
}

// chunk converts the view to the ChatCompletionChunk json.Unmarshal
// would have produced.
func (v *chunkView) chunk() *ChatCompletionChunk {
	c := &ChatCompletionChunk{
		ID: string(v.id), Object: intern(v.object), Created: v.created, Model: string(v.model),
	}
	if v.choicesSet {
		c.Choices = make([]DeltaChoice, len(v.choices))
		for i, d := range v.choices {
			c.Choices[i] = DeltaChoice{Index: d.index, Delta: Message{Role: intern(d.role), Content: intern(d.content)}}
			if d.finishSet {
				finish := intern(d.finish)
				c.Choices[i].FinishReason = &finish
			}
		}
	}
	if v.usageSet {
		u := v.usage
		c.Usage = &u
	}
	return c
}

// decodeChatResponse decodes body as json.Unmarshal into a fresh
// ChatCompletionResponse does.
func decodeChatResponse(body []byte) (*ChatCompletionResponse, error) {
	var s scanner
	s.reset(body)
	r := new(ChatCompletionResponse)
	if s.chatResponse(r); s.done() {
		return r, nil
	}
	*r = ChatCompletionResponse{}
	return r, json.Unmarshal(body, r)
}

// decodeChunk decodes payload as json.Unmarshal into a fresh
// ChatCompletionChunk does.
func decodeChunk(payload []byte) (*ChatCompletionChunk, error) {
	var s scanner
	var v chunkView
	s.reset(payload)
	if s.chunk(&v); s.done() {
		return v.chunk(), nil
	}
	c := new(ChatCompletionChunk)
	return c, json.Unmarshal(payload, c)
}

// The request decoders scan a body into a reqView, its strings still
// bytes: enough to validate it (OpenAICodec.Check), or to build it with
// its strings carved from one allocation and its pointers boxed with
// it. A failed scan hands the body to encoding/json, as above.

// reqKind is the request shape a scan accepts.
type reqKind uint8

const (
	kindChat reqKind = iota
	kindEmbeddings
	kindRerank
	kindOllamaChat
	kindOllamaGenerate
	kindOptions // an Ollama request's options object
)

// kindKeys are the keys each kind's object may hold, as fieldBit sets.
var kindKeys = [...]uint64{
	kindChat:           keys("model", "messages", "stream", "max_tokens", "min_tokens", "temperature", "seed", "user"),
	kindEmbeddings:     keys("model", "input", "user"),
	kindRerank:         keys("model", "query", "documents", "top_n"),
	kindOllamaChat:     keys("model", "messages", "stream", "options"),
	kindOllamaGenerate: keys("model", "prompt", "system", "stream", "options"),
	kindOptions:        keys("num_predict", "temperature", "seed"),
}

func keys(names ...string) (set uint64) {
	for _, name := range names {
		set |= fieldBit(name)
	}
	return set
}

// fieldBit is key's bit in a key set: 1<<i for fieldNames[i].
func fieldBit(key string) uint64 {
	for i, name := range fieldNames {
		if key == name {
			return 1 << i
		}
	}
	return 0
}

// reqView is a decoded request of any kind. maxTokens holds max_tokens
// or num_predict, list the input or documents; msgsSet, listSet and
// optsSet record a non-nil Messages, list and Options.
type reqView struct {
	model, user, query, prompt, system  []byte
	msgs                                []msgView
	list                                [][]byte
	msgsSet, listSet, optsSet           bool
	stream, streamSet, tempSet, seedSet bool
	maxTokens, minTokens, topN          int
	temp                                float64
	seed                                int64
}

// msgView is one message's role and content.
type msgView struct{ role, content []byte }

// scan decodes body as a kind k request into v, appending to v's msgs
// and list; ok reports that the scan recognised all of body. v comes
// and goes by value, so a caller's small arrays stay on its stack.
func scan(k reqKind, body []byte, v reqView) (_ reqView, ok bool) {
	var s scanner
	s.reset(body)
	v = s.request(k, v)
	return v, s.done()
}

// request decodes a kind k object's members into v. A null member
// leaves its field as encoding/json does, unset; a key repeated, or
// not one of kind k's, fails the scan.
func (s *scanner) request(k reqKind, v reqView) reqView {
	var seen uint64
	for n := 0; ; n++ {
		key, ok := s.member(n)
		if !ok {
			return v
		}
		bit := fieldBit(key)
		if bit&kindKeys[k] == 0 || seen&bit != 0 {
			s.fail()
			return v
		}
		seen |= bit
		if s.null() {
			continue
		}
		switch key {
		case "model":
			v.model = s.str()
		case "user":
			v.user = s.str()
		case "query":
			v.query = s.str()
		case "prompt":
			v.prompt = s.str()
		case "system":
			v.system = s.str()
		case "messages":
			v.msgsSet = true
			for i := 0; s.element(i); i++ {
				var m msgView
				m.role, m.content = s.messageBytes()
				v.msgs = append(v.msgs, m)
			}
		case "input", "documents":
			v.listSet = true
			if key == "input" && s.peek() == '"' {
				// InputField reads a lone string as a one-element list.
				v.list = append(v.list, s.str())
				break
			}
			for i := 0; s.element(i); i++ {
				v.list = append(v.list, s.str())
			}
		case "stream":
			v.stream, v.streamSet = s.boolean(), true
		case "max_tokens", "num_predict":
			v.maxTokens = int(s.integer(strconv.IntSize))
		case "min_tokens":
			v.minTokens = int(s.integer(strconv.IntSize))
		case "top_n":
			v.topN = int(s.integer(strconv.IntSize))
		case "temperature":
			v.temp, v.tempSet = s.float(), true
		case "seed":
			v.seed, v.seedSet = s.integer(64), true
		case "options":
			v.optsSet = true
			v = s.request(kindOptions, v)
		}
	}
}

// valid reports whether the Validate of a kind k request accepts v.
func (v *reqView) valid(k reqKind) bool {
	switch k {
	case kindEmbeddings:
		return len(v.model) > 0 && len(v.list) > 0
	case kindRerank:
		return len(v.model) > 0 && len(v.query) > 0 && len(v.list) > 0 && v.topN >= 0
	}
	if len(v.model) == 0 || len(v.msgs) == 0 || v.maxTokens < 0 || v.minTokens < 0 ||
		v.tempSet && !(v.temp >= 0 && v.temp <= 2) {
		return false
	}
	for _, m := range v.msgs {
		switch string(m.role) {
		case "system", "user", "assistant", "tool":
		default:
			return false
		}
	}
	return true
}

// texts hands out the strings of one request from a single allocation
// sized for all of them. Values intern knows come back as its
// constants.
type texts struct {
	n int
	b strings.Builder
}

// texts returns a texts sized for every string v holds.
func (v *reqView) texts() (t texts) {
	t.n = len(v.model) + len(v.user) + len(v.query) + len(v.prompt) + len(v.system)
	for _, m := range v.msgs {
		t.n += len(m.role) + len(m.content)
	}
	for _, b := range v.list {
		t.n += len(b)
	}
	return t
}

func (t *texts) take(b []byte) string {
	if s, ok := constant(b); ok {
		return s
	}
	if t.b.Cap() == 0 {
		t.b.Grow(t.n)
	}
	n := t.b.Len()
	t.b.Write(b)
	return t.b.String()[n:]
}

func (t *texts) takeAll(bs [][]byte, set bool) []string {
	if !set {
		return nil
	}
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = t.take(b)
	}
	return out
}

// chatBox allocates a chat Request with its payload and the payload's
// pointer targets.
type chatBox struct {
	req  Request
	chat ChatCompletionRequest
	temp float64
	seed int64
}

func newChatBox(f Family) *chatBox {
	b := &chatBox{req: Request{Family: f}}
	b.req.Chat = &b.chat
	return b
}

// decodeChat decodes body as json.Unmarshal into a fresh
// ChatCompletionRequest does, into the box's payload.
func decodeChat(f Family, body []byte) (*chatBox, error) {
	var small [4]msgView
	b := newChatBox(f)
	v, ok := scan(kindChat, body, reqView{msgs: small[:0]})
	if !ok {
		return b, json.Unmarshal(body, &b.chat)
	}
	t, r := v.texts(), &b.chat
	r.Model, r.User = t.take(v.model), t.take(v.user)
	if v.msgsSet {
		r.Messages = make([]Message, len(v.msgs))
		for i, m := range v.msgs {
			r.Messages[i] = Message{Role: t.take(m.role), Content: t.take(m.content)}
		}
	}
	r.Stream, r.MaxTokens, r.MinTokens = v.stream, v.maxTokens, v.minTokens
	if v.tempSet {
		b.temp, r.Temperature = v.temp, &b.temp
	}
	if v.seedSet {
		b.seed, r.Seed = v.seed, &b.seed
	}
	return b, nil
}

// decodeList decodes body as json.Unmarshal into a fresh
// EmbeddingsRequest (k is kindEmbeddings) or RerankRequest does, into
// a Request allocated with it.
func decodeList(k reqKind, body []byte) (*Request, error) {
	var small [8][]byte
	b := new(struct {
		req Request
		emb EmbeddingsRequest
		rr  RerankRequest
	})
	var dst any = &b.emb
	b.req.Family, b.req.Embeddings = FamilyEmbeddings, &b.emb
	if k == kindRerank {
		dst, b.req.Family, b.req.Embeddings, b.req.Rerank = &b.rr, FamilyRerank, nil, &b.rr
	}
	v, ok := scan(k, body, reqView{list: small[:0]})
	if !ok {
		return &b.req, json.Unmarshal(body, dst)
	}
	t := v.texts()
	b.emb.Model, b.emb.User, b.rr.Query = t.take(v.model), t.take(v.user), t.take(v.query)
	b.rr.Model, b.rr.TopN = b.emb.Model, v.topN
	b.emb.Input = t.takeAll(v.list, v.listSet)
	b.rr.Documents = b.emb.Input
	return &b.req, nil
}

// ollamaBox allocates a decoded Ollama request with its pointer
// targets; chat or generate holds it.
type ollamaBox struct {
	chat     OllamaChatRequest
	generate OllamaGenerateRequest
	stream   bool
	opts     OllamaOptions
	temp     float64
	seed     int64
}

// decodeOllama decodes body as json.Unmarshal into a fresh
// OllamaChatRequest (k is kindOllamaChat) or OllamaGenerateRequest
// does, into the box. A request with images goes to encoding/json.
func decodeOllama(k reqKind, body []byte) (*ollamaBox, error) {
	var small [4]msgView
	b := new(ollamaBox)
	v, ok := scan(k, body, reqView{msgs: small[:0]})
	switch {
	case !ok && k == kindOllamaChat:
		return b, json.Unmarshal(body, &b.chat)
	case !ok:
		return b, json.Unmarshal(body, &b.generate)
	}
	var stream *bool
	var opts *OllamaOptions
	if v.streamSet {
		b.stream, stream = v.stream, &b.stream
	}
	if v.optsSet {
		opts = &b.opts
		opts.NumPredict = v.maxTokens
		if v.tempSet {
			b.temp, opts.Temperature = v.temp, &b.temp
		}
		if v.seedSet {
			b.seed, opts.Seed = v.seed, &b.seed
		}
	}
	t := v.texts()
	if k == kindOllamaGenerate {
		b.generate = OllamaGenerateRequest{Model: t.take(v.model), Prompt: t.take(v.prompt),
			System: t.take(v.system), Stream: stream, Options: opts}
		return b, nil
	}
	b.chat = OllamaChatRequest{Model: t.take(v.model), Stream: stream, Options: opts}
	if v.msgsSet {
		b.chat.Messages = make([]OllamaMessage, len(v.msgs))
		for i, m := range v.msgs {
			b.chat.Messages[i] = OllamaMessage{Role: t.take(m.role), Content: t.take(m.content)}
		}
	}
	return b, nil
}
