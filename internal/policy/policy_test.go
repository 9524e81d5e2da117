package policy

import (
	"reflect"
	"testing"
	"time"
)

type knob struct {
	name string
	d    time.Duration
	f    float64
	n    int
}

func (k *knob) Name() string { return k.name }

func testRegistry() *Registry[*knob] {
	r := NewRegistry[*knob]("test: knob")
	r.Add(func() *knob { return &knob{name: "plain"} })
	r.AddDefault(func() *knob { return &knob{name: "usual"} })
	r.Register("tuned", "d=DUR:f=F:n=N", func(s *Spec) (*knob, error) {
		k := &knob{name: s.String(), d: time.Second, f: 0.5, n: 3}
		err := s.Apply(
			Duration("d", Positive, Into(&k.d)),
			Float("f", Fraction, func(f float64) { k.f = f * float64(k.n) }), // reads n: order matters
			Int("n", AtLeastOne, Into(&k.n)),
		)
		return k, err
	})
	return r
}

// TestRegistryListsAndDefault: names keep registration order, the empty spec
// builds the AddDefault policy, and Usage brackets parameter usage.
func TestRegistryListsAndDefault(t *testing.T) {
	r := testRegistry()
	if got := r.Names(); !reflect.DeepEqual(got, []string{"plain", "usual", "tuned"}) {
		t.Fatalf("Names() = %v", got)
	}
	if r.Default() != "usual" {
		t.Fatalf("Default() = %q", r.Default())
	}
	if k, err := r.New(""); err != nil || k.name != "usual" {
		t.Fatalf(`New("") = %+v, %v`, k, err)
	}
	if got, want := r.Usage(), "plain, usual, tuned[:d=DUR:f=F:n=N]"; got != want {
		t.Fatalf("Usage() = %q, want %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a name twice did not panic")
		}
	}()
	r.Add(func() *knob { return &knob{name: "plain"} })
}

// TestSpecGrammar walks the grammar's accept and reject cases on one axis;
// every rejection carries the axis and the quoted spec.
func TestSpecGrammar(t *testing.T) {
	r := testRegistry()
	k, err := r.New("tuned:n=4:f=0.5:d=1m30s")
	if err != nil || k.Name() != "tuned:n=4:f=0.5:d=1m30s" || k.d != 90*time.Second || k.n != 4 || k.f != 2 {
		t.Fatalf("tuned in spec order: %+v, %v", k, err)
	}
	if k, _ := r.New("tuned:f=0.5:n=4"); k.f != 1.5 {
		t.Fatalf("parameters must apply in spec order: f = %g, want 0.5×(default n=3)", k.f)
	}
	for spec, problem := range map[string]string{
		"nope":              "unknown name (want plain, usual, tuned[:d=DUR:f=F:n=N])",
		"plain:x=1":         "plain takes no parameters",
		"plain:":            "plain takes no parameters",
		"tuned:":            `parameter "" is not key=value`,
		"tuned:d":           `parameter "d" is not key=value`,
		"tuned:d=":          `parameter "d=" is not key=value`,
		"tuned:=1s":         `parameter "=1s" is not key=value`,
		"tuned:d=1s:":       `parameter "" is not key=value`,
		"tuned:d=1s:d=2s":   `parameter "d" given twice`,
		"tuned:x=1":         `unknown parameter "x" (want d, f, n)`,
		"tuned:d=0s":        `d="0s" is not a duration > 0`,
		"tuned:d=5":         `d="5" is not a duration > 0`,
		"tuned:f=1.5":       `f="1.5" is not a number in [0, 1]`,
		"tuned:f=NaN":       `f="NaN" is not a number in [0, 1]`,
		"tuned:n=0":         `n="0" is not an integer >= 1`,
		"tuned:n=2.5":       `n="2.5" is not an integer >= 1`,
		"tuned:n=2:f=bogus": `f="bogus" is not a number in [0, 1]`,
	} {
		_, err := r.New(spec)
		if want := `test: knob "` + spec + `": ` + problem; err == nil || err.Error() != want {
			t.Errorf("New(%q) error = %v, want %s", spec, err, want)
		}
	}
	if !NonNegative.has(0) || Positive.has(0) {
		t.Fatal("Positive must exclude 0, NonNegative include it")
	}
}
