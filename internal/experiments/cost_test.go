package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"fastiov/internal/cluster"
	"fastiov/internal/cost"
	"fastiov/internal/fault"
	"fastiov/internal/serverless"
)

// TestCostModelFieldsLive doubles each cost.Model field in turn and
// requires some output of a small scenario set to change: c=10 starts on
// every control-plane variant, a start that retries a timed-out CNI add,
// c=10 serverless completions and a data-plane stream. The completions run
// the largest image, concurrently: a lone transfer costs the same in any
// chunking, so only contended ones show VirtioChunk. A field no scenario
// reads is a constant nothing charges; delete it rather than exempt it.
func TestCostModelFieldsLive(t *testing.T) {
	cniAdd := fault.NewPlan()
	cniAdd.Set(fault.SiteCNIAdd, fault.Rule{EveryN: 1, Limit: 1})
	x := NewExec(Config{})
	runs := []func(c cost.Model) []byte{}
	on := func(baseline string, c cost.Model, edit func(*cluster.Options)) recipe {
		r := onHost(baseline)
		r.host.Opts.Costs = c
		if edit != nil {
			edit(&r.host.Opts)
		}
		return x.resolve(r)
	}
	for _, b := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV, cluster.BaselineRebind,
		cluster.BaselineIPvtap, cluster.BaselineVDPA} {
		runs = append(runs, func(c cost.Model) []byte { return once(t, startup(on(b, c, nil), 10)) })
	}
	runs = append(runs,
		func(c cost.Model) []byte {
			return once(t, startup(on(cluster.BaselineVanilla, c, func(o *cluster.Options) { o.Faults = cniAdd }), 1))
		},
		func(c cost.Model) []byte {
			return once(t, completions(on(cluster.BaselineFastIOV, c, nil), 10, serverless.Inference))
		},
		func(c cost.Model) []byte { return once(t, stream(on(cluster.BaselineFastIOV, c, nil), 64, 1500)) },
	)

	def := cost.Default()
	want := make([][]byte, len(runs))
	for i, run := range runs {
		want[i] = run(def)
	}
	typ := reflect.TypeOf(def)
	for f := 0; f < typ.NumField(); f++ {
		c := def
		v := reflect.ValueOf(&c).Elem().Field(f)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(2 * v.Int())
		case reflect.Float64:
			v.SetFloat(2 * v.Float())
		default:
			t.Fatalf("%s: unhandled kind %s", typ.Field(f).Name, v.Kind())
		}
		live := false
		for i, run := range runs {
			if !bytes.Equal(run(c), want[i]) {
				live = true
				break
			}
		}
		if !live {
			t.Errorf("doubling %s changes no output of the scenario set", typ.Field(f).Name)
		}
	}
}

// once runs sc at seed 1 and returns its fingerprint.
func once[T any](t *testing.T, sc scenario[T]) []byte {
	t.Helper()
	v, err := sc.runAt(1)
	if err != nil {
		t.Fatalf("%s: %v", sc.work, err)
	}
	return sc.fingerprint(v)
}
