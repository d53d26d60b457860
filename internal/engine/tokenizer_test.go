package engine

import (
	"strings"
	"testing"
	"testing/quick"

	"swapservellm/internal/proxy/ir"
)

func TestCountTextBasics(t *testing.T) {
	var tok Tokenizer
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"hi", 1},
		{"hello", 2},                     // 5 chars -> 2 tokens
		{"a b c", 3},                     // three short words
		{"hello, world!", 2 + 1 + 2 + 1}, // hello(2) ,(1) world(2) !(1)
	}
	for _, c := range cases {
		if got := tok.CountText(c.in); got != c.want {
			t.Errorf("CountText(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCountTextWhitespaceKinds(t *testing.T) {
	var tok Tokenizer
	if got := tok.CountText("a\tb\nc\rd"); got != 4 {
		t.Fatalf("CountText mixed whitespace = %d, want 4", got)
	}
}

func TestCountMessages(t *testing.T) {
	var tok Tokenizer
	msgs := []ir.Message{
		{Role: "system", Content: "be brief"},
		{Role: "user", Content: "hi"},
	}
	// 3 (prefix) + 4+3 ("be"=1 + "brief"=2) + 4+1 = 15
	if got := tok.CountMessages(msgs); got != 15 {
		t.Fatalf("CountMessages = %d, want 15", got)
	}
}

// Property: token counts are non-negative, zero only for empty text, and
// monotonic under concatenation with a separator.
func TestCountTextProperty(t *testing.T) {
	var tok Tokenizer
	f := func(a, b string) bool {
		ca, cb := tok.CountText(a), tok.CountText(b)
		if ca < 0 || cb < 0 {
			return false
		}
		joined := tok.CountText(a + " " + b)
		return joined >= ca && joined >= cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	var g Generator
	for i := 0; i < 5; i++ {
		if g.Token("prompt", 7, i) != g.Token("prompt", 7, i) {
			t.Fatal("Token not deterministic")
		}
	}
	if g.CompletionLength("p", 1, 0) != g.CompletionLength("p", 1, 0) {
		t.Fatal("CompletionLength not deterministic")
	}
}

func TestGeneratorSeedSensitivity(t *testing.T) {
	var g Generator
	same := true
	for i := 0; i < 8; i++ {
		if g.Token("prompt", 1, i) != g.Token("prompt", 2, i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorPromptSensitivity(t *testing.T) {
	var g Generator
	same := true
	for i := 0; i < 8; i++ {
		if g.Token("prompt A", 1, i) != g.Token("prompt B", 1, i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different prompts produced identical streams")
	}
}

func TestCompletionLengthBounds(t *testing.T) {
	var g Generator
	f := func(seed int64, prompt string) bool {
		n := g.CompletionLength(prompt, seed, 0)
		return n >= 16 && n <= 255
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if n := g.CompletionLength("p", 3, 5); n != 5 {
		t.Fatalf("maxTokens cap: got %d, want 5", n)
	}
}

func TestTokenSeparators(t *testing.T) {
	var g Generator
	if strings.HasPrefix(g.Token("p", 1, 0), " ") {
		t.Fatal("first token has leading space")
	}
	if !strings.HasPrefix(g.Token("p", 1, 1), " ") {
		t.Fatal("subsequent token missing separator")
	}
}

// TestTokenStreamMatchesRewalk checks TokenStream and Token against the
// definition the stream replaces: token i is the vocabulary word at
// i+1 SplitMix steps from the prompt and seed's state, with a space
// before every token after the first. Reading on costs no allocation.
func TestTokenStreamMatchesRewalk(t *testing.T) {
	var g Generator
	for _, c := range []struct {
		prompt string
		seed   int64
	}{{"p", 1}, {"<|user|>hello from the test", 42}, {"", -7}} {
		s := g.Stream(c.prompt, c.seed)
		for i := 0; i < 300; i++ {
			state := hashSeed(c.prompt, c.seed)
			for k := 0; k <= i; k++ {
				state = step(state)
			}
			want := vocabulary[state%uint64(len(vocabulary))]
			if i > 0 {
				want = " " + want
			}
			if got := s.Next(); got != want {
				t.Fatalf("%q seed %d: stream token %d = %q, want %q", c.prompt, c.seed, i, got, want)
			}
			if got := g.Token(c.prompt, c.seed, i); got != want {
				t.Fatalf("%q seed %d: Token(%d) = %q, want %q", c.prompt, c.seed, i, got, want)
			}
		}
	}
	s := g.Stream("p", 1)
	if a := testing.AllocsPerRun(100, func() { s.Next() }); a != 0 {
		t.Errorf("TokenStream.Next allocates %v times, want 0", a)
	}
}

func TestPromptText(t *testing.T) {
	got := PromptText([]ir.Message{{Role: "user", Content: "hello"}})
	if !strings.Contains(got, "user") || !strings.Contains(got, "hello") {
		t.Fatalf("PromptText = %q", got)
	}
}
