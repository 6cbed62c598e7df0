package clause

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSplit(t *testing.T) {
	for spec, want := range map[string][]string{
		"":              nil,
		" ; ;; ":        nil,
		"a":             {"a"},
		" a:x=1 ;b ; ":  {"a:x=1", "b"},
		"a;;b;":         {"a", "b"},
		"\ta = 1\n;\tb": {"a = 1", "b"},
	} {
		if got := Split(spec); !reflect.DeepEqual(got, want) {
			t.Errorf("Split(%q) = %q, want %q", spec, got, want)
		}
	}
}

func TestArgs(t *testing.T) {
	got, err := Args(" p = 0.5 ,every=2, lat= ", "p", "every", "lat")
	want := []Arg{{"p", "0.5"}, {"every", "2"}, {"lat", ""}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Args = %v, %v, want %v", got, err, want)
	}
	for _, c := range []struct{ list, wantSub string }{
		{"", "want key=val"},
		{"p", "want key=val"},
		{"p=1,,every=2", "want key=val"},
		{"speed=9", `unknown key "speed" (want p, every)`},
		{"p=1, p=2", `duplicate key "p"`},
	} {
		if _, err := Args(c.list, "p", "every"); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Args(%q) error = %v, want %q", c.list, err, c.wantSub)
		}
	}
}

func TestValues(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		wantSub string // "" = accepted
	}{
		{"float in range", second(Float("0.5", 0, 1)), ""},
		{"float at bound", second(Float("1", 0, 1)), ""},
		{"float unbounded", second(Float("-1e300", math.Inf(-1), math.Inf(1))), ""},
		{"float above", second(Float("1.5", 0, 1)), "out of [0,1]"},
		{"float NaN", second(Float("NaN", 0, 1)), "non-finite"},
		{"float Inf", second(Float("+Inf", math.Inf(-1), math.Inf(1))), "non-finite"},
		{"float overflow", second(Float("1e999", 0, math.Inf(1))), "out of range"},
		{"float syntax", second(Float("abc", 0, 1)), "invalid syntax"},
		{"positive", second(Positive("1e-9")), ""},
		{"positive zero", second(Positive("0")), "must be > 0"},
		{"int", second(Int("3", 1)), ""},
		{"int below", second(Int("0", 1)), "want integer >= 1"},
		{"int syntax", second(Int("1.5", 0)), "want integer >= 0"},
		{"time zero", second(Time("0s")), ""},
		{"time negative", second(Time("-1s")), "want time >= 0"},
		{"time syntax", second(Time("")), "invalid duration"},
		{"duration", second(Duration("90s")), ""},
		{"duration zero", second(Duration("0s")), "want duration > 0"},
		{"duration syntax", second(Duration("soon")), "invalid duration"},
		{"name", Name("web-2"), ""},
		{"name empty", Name(""), "want [a-z0-9-]+"},
		{"name upper", Name("Web"), "want [a-z0-9-]+"},
	}
	for _, c := range cases {
		if c.wantSub == "" && c.err != nil || c.wantSub != "" && (c.err == nil || !strings.Contains(c.err.Error(), c.wantSub)) {
			t.Errorf("%s: error %v, want %q", c.name, c.err, c.wantSub)
		}
	}
	if d, err := Duration("90s"); d != 90*time.Second || err != nil {
		t.Errorf("Duration(90s) = %v, %v", d, err)
	}
	if f, err := Float("0.25", 0, 1); f != 0.25 || err != nil {
		t.Errorf("Float(0.25) = %v, %v", f, err)
	}
}

func second[T any](_ T, err error) error { return err }

func TestFixedPoint(t *testing.T) {
	upper := func(s string) (string, error) { return strings.ToUpper(s), nil }
	id := func(s string) string { return s }
	if err := FixedPoint("abc", upper, id); err != nil {
		t.Errorf("idempotent canonical form rejected: %v", err)
	}
	flip := func(s string) string { return s + "x" }
	if err := FixedPoint("abc", upper, flip); err == nil {
		t.Error("drifting canonical form accepted")
	}
}

// FuzzClause pins the lexer's contracts on arbitrary input: nothing
// panics, Split yields trimmed non-empty clauses that re-split to
// themselves, and every accepted argument list renders back to a list
// that re-lexes to the identical arguments.
func FuzzClause(f *testing.F) {
	for _, seed := range []string{
		"",
		";;",
		"a=1",
		" a = 1 , b = x ",
		"site:a=1,b=2;other:b=3",
		"a=1,a=2",
		"a",
		"a=,b=",
		"a==1",
		"c=1",
		"a=1,,b=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		clauses := Split(spec)
		if again := Split(strings.Join(clauses, ";")); !reflect.DeepEqual(again, clauses) {
			t.Fatalf("Split(%q) = %q re-splits to %q", spec, clauses, again)
		}
		for _, c := range clauses {
			if c == "" || c != strings.TrimSpace(c) {
				t.Fatalf("Split(%q) yielded untrimmed or empty clause %q", spec, c)
			}
			_, list, _ := strings.Cut(c, ":")
			for _, l := range []string{c, list} {
				args, err := Args(l, "a", "b")
				if err != nil {
					continue
				}
				items := make([]string, len(args))
				for i, a := range args {
					items[i] = a.Key + "=" + a.Val
					Float(a.Val, 0, 1)
					Positive(a.Val)
					Int(a.Val, 0)
					Time(a.Val)
					Duration(a.Val)
					Name(a.Val)
				}
				again, err := Args(strings.Join(items, ","), "a", "b")
				if err != nil || !reflect.DeepEqual(again, args) {
					t.Fatalf("Args(%q) = %v re-lexes to %v, %v", l, args, again, err)
				}
			}
		}
	})
}
