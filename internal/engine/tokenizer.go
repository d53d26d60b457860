package engine

import (
	"strings"

	"swapservellm/internal/proxy/ir"
)

// Tokenizer approximates LLM tokenization deterministically: whitespace
// and punctuation boundaries, with long words split every four bytes —
// close to the ~4 characters/token heuristic of BPE vocabularies.
type Tokenizer struct{}

// CountText returns the token count for one text string.
func (Tokenizer) CountText(s string) int {
	if s == "" {
		return 0
	}
	tokens := 0
	inWord := 0
	flush := func() {
		if inWord > 0 {
			tokens += (inWord + 3) / 4
			inWord = 0
		}
	}
	for _, r := range s {
		switch {
		case r == ' ' || r == '\n' || r == '\t' || r == '\r':
			flush()
		case strings.ContainsRune(".,;:!?()[]{}\"'`", r):
			flush()
			tokens++
		default:
			inWord++
		}
	}
	flush()
	return tokens
}

// CountMessages returns the prompt token count for a chat, including the
// per-message template overhead (role markers and separators).
func (t Tokenizer) CountMessages(msgs []ir.Message) int {
	const perMessageOverhead = 4
	total := 3 // chat template prefix
	for _, m := range msgs {
		total += perMessageOverhead + t.CountText(m.Content)
	}
	return total
}
