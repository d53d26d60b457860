package engine

import (
	"hash/fnv"

	"swapservellm/internal/proxy/ir"
)

// vocabulary is the word list the deterministic generator draws from. The
// content is immaterial to the experiments; determinism is what matters
// (§5.1 fixes temperature and seed for reproducible outputs).
var vocabulary = []string{
	"the", "model", "serves", "inference", "requests", "with", "low",
	"latency", "and", "high", "throughput", "across", "multiple", "GPU",
	"devices", "while", "memory", "is", "managed", "by", "a", "scheduler",
	"that", "swaps", "engines", "in", "out", "of", "device", "state",
	"checkpoints", "restore", "quickly", "because", "initialization",
	"phases", "are", "skipped", "tokens", "stream", "to", "clients",
	"over", "persistent", "connections", "as", "they", "decode",
}

// Generator produces deterministic completions: the same prompt, seed,
// and temperature-zero setting always yield the same token sequence, as
// §5.1 requires for reproducible evaluation.
type Generator struct{}

// hashSeed folds the prompt and request seed into a stream state.
func hashSeed(prompt string, seed int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(prompt))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// step advances the deterministic stream state.
func step(state uint64) uint64 {
	// SplitMix64 finalizer: good avalanche, no external deps.
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CompletionLength returns the number of tokens the model would generate
// for the prompt before emitting EOS, bounded by maxTokens when positive.
func (Generator) CompletionLength(prompt string, seed int64, maxTokens int) int {
	state := step(hashSeed(prompt, seed))
	n := 16 + int(state%240) // 16..255 tokens before a natural stop
	if maxTokens > 0 && n > maxTokens {
		n = maxTokens
	}
	return n
}

// Token returns the i-th output token (with a leading space separator
// after the first token). It walks the stream from the start, so a
// caller reading a whole completion takes a TokenStream instead.
func (g Generator) Token(prompt string, seed int64, i int) string {
	s := g.Stream(prompt, seed)
	tok := s.Next()
	for k := 0; k < i; k++ {
		tok = s.Next()
	}
	return tok
}

// spacedVocabulary is vocabulary with each word's leading separator,
// so a token after the first costs no concatenation.
var spacedVocabulary = func() []string {
	out := make([]string, len(vocabulary))
	for i, w := range vocabulary {
		out[i] = " " + w
	}
	return out
}()

// TokenStream is one completion's token sequence, read in order: each
// Next is one SplitMix step past the last, where Token re-walks the
// stream from its seed.
type TokenStream struct {
	state uint64
	next  int // index of the token Next returns
}

// Stream starts the token sequence of prompt and seed: its i-th Next
// returns Token(prompt, seed, i).
func (Generator) Stream(prompt string, seed int64) TokenStream {
	return TokenStream{state: hashSeed(prompt, seed)}
}

// Next returns the stream's next token.
func (s *TokenStream) Next() string {
	s.state = step(s.state)
	w := s.state % uint64(len(vocabulary))
	s.next++
	if s.next == 1 {
		return vocabulary[w]
	}
	return spacedVocabulary[w]
}

// EmbeddingDim is the simulated embedding width. Real embedding models
// emit 768–4096 dims; 8 keeps response bodies small while preserving
// the property the experiments need — a deterministic vector per input.
const EmbeddingDim = 8

// Embedding returns the deterministic embedding vector for text: dim
// components in [-1, 1] with six decimal places, a pure function of the
// input so cached and replayed responses are byte-identical.
func (Generator) Embedding(text string, dim int) []float64 {
	state := hashSeed(text, 0)
	out := make([]float64, dim)
	for d := range out {
		state = step(state)
		out[d] = float64(state%2000001)/1e6 - 1
	}
	return out
}

// RerankScore returns the deterministic relevance score in [0, 1] (six
// decimal places) for a query-document pair.
func (Generator) RerankScore(query, doc string) float64 {
	state := step(hashSeed(query+"<|doc|>"+doc, 0))
	return float64(state%1000001) / 1e6
}

// PromptText flattens a chat into the prompt string fed to the stream
// state, mirroring a chat template.
func PromptText(msgs []ir.Message) string {
	var out string
	for _, m := range msgs {
		out += "<|" + m.Role + "|>" + m.Content
	}
	return out
}
