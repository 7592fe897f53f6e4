package lint

import (
	"strings"
	"testing"
)

// FuzzParseIgnoreDirective hardens the suppression parser: arbitrary comment
// text must never produce an inconsistent parse (a match with no verdict, a
// well-formed directive with unknown rules or an empty reason).
func FuzzParseIgnoreDirective(f *testing.F) {
	f.Add("//lint:ignore determinism fixture demonstrates sanctioned wall-clock use")
	f.Add("//lint:ignore lockorder,locking shared reason")
	f.Add("//lint:ignore")
	f.Add("//lint:ignore *")
	f.Add("//lint:ignore * blanket reason")
	f.Add("//lint:ignore unknownrule why")
	f.Add("//lint:ignore determinism,")
	f.Add("// not a directive")
	f.Add("//lint:ignoredeterminism glued")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		rules, reason, matched, errMsg := parseIgnoreDirective(text)
		if !matched {
			if len(rules) != 0 || reason != "" || errMsg != "" {
				t.Fatalf("unmatched text %q returned content: rules=%v reason=%q err=%q", text, rules, reason, errMsg)
			}
			return
		}
		if !strings.HasPrefix(text, "//lint:ignore") {
			t.Fatalf("matched text %q without the directive prefix", text)
		}
		if errMsg != "" {
			return // malformed: reported as a diagnostic, nothing else to hold
		}
		if len(rules) == 0 {
			t.Fatalf("well-formed directive %q parsed zero rules", text)
		}
		for _, r := range rules {
			if r != "*" && !knownRules[r] {
				t.Fatalf("well-formed directive %q passed unknown rule %q", text, r)
			}
		}
		if strings.TrimSpace(reason) == "" {
			t.Fatalf("well-formed directive %q has an empty reason", text)
		}
	})
}

// FuzzParseGuardedBy hardens the guarded-by annotation parser: any extracted
// mutex name must be a plausible identifier (regexp word characters only,
// never empty).
func FuzzParseGuardedBy(f *testing.F) {
	f.Add("// hits, guarded by mu")
	f.Add("// Guarded By statsMu.")
	f.Add("// nothing to see here")
	f.Add("// guarded by ")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		mu, ok := parseGuardedBy(text)
		if !ok {
			if mu != "" {
				t.Fatalf("no-match on %q still returned name %q", text, mu)
			}
			return
		}
		if mu == "" {
			t.Fatalf("match on %q returned an empty mutex name", text)
		}
		for _, r := range mu {
			wordChar := r == '_' || ('0' <= r && r <= '9') ||
				('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z')
			if !wordChar {
				t.Fatalf("mutex name %q from %q contains non-identifier rune %q", mu, text, r)
			}
		}
	})
}
