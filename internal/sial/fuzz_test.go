package sial

import (
	"strings"
	"testing"
)

// FuzzFrontEnd feeds arbitrary text through the lexer, parser, checker,
// and (for accepted programs) the formatter round trip.  The invariant:
// the front end never panics, and any program it accepts must be
// formattable to source it accepts again.
//
// Run `go test -fuzz FuzzFrontEnd ./internal/sial` to explore beyond the
// seed corpus; plain `go test` executes the seeds.
func FuzzFrontEnd(f *testing.F) {
	seeds := []string{
		"",
		"sial x endsial",
		"sial x\nparam n = 4\naoindex I = 1, n\nendsial",
		paperExample,
		"sial x\npardo I where I <= J\nendpardo\nendsial",
		whereEnclosingDoIndex,
		"sial x\nscalar s\ns = 1 + 2 * (3 - 4) / 5\nendsial",
		"sial x\naoindex i = 1, 8\nsubindex ii of i\nendsial",
		"sial x\n# comment only\nendsial",
		"sial \"not an ident\"",
		"sial x\nproc p\ncall p\nendproc\nendsial",
		"do I get put pardo 1.5e-3 <= != \"str\"",
		"sial x\naoindex I = 1, 4\ntemp a(I)\ndo I\na(I) = 0.0\nexecute foo a(I), a(I), a(I), a(I)\nenddo\nendsial",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			// Errors must render cleanly with context.
			_ = ErrorWithContext(src, err)
			return
		}
		checked, err := Check(prog)
		if err != nil {
			_ = ErrorWithContext(src, err)
			return
		}
		_ = checked
		// Accepted programs round-trip through the formatter.
		formatted := Format(prog)
		prog2, err := Parse(formatted)
		if err != nil {
			t.Fatalf("formatter emitted unparseable source: %v\ninput: %q\nformatted:\n%s", err, src, formatted)
		}
		if _, err := Check(prog2); err != nil {
			t.Fatalf("formatted source fails check: %v\nformatted:\n%s", err, formatted)
		}
		// Idempotence.
		if f2 := Format(prog2); f2 != formatted {
			t.Fatalf("format not idempotent for %q", src)
		}
	})
}

func TestFrontEndNoPanicOnGarbage(t *testing.T) {
	// A pile of adversarial fragments, none of which may panic.
	inputs := []string{
		strings.Repeat("(", 1000),
		strings.Repeat("pardo I ", 500),
		"sial x\n" + strings.Repeat("do I\n", 200) + "endsial",
		"sial x\naoindex I = 99999999999, 4\nendsial",
		"sial x\nscalar s = 1e308\nendsial",
		"sial \x00\x01\x02",
		"sial x\nprint \"" + strings.Repeat("a", 4096) + "\"\nendsial",
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src[:min(40, len(src))], r)
				}
			}()
			if prog, err := Parse(src); err == nil {
				_, _ = Check(prog)
			}
		}()
	}
}
