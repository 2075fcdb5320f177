package core

import (
	"reflect"
	"testing"
)

// bumpLeaves calls visit once per scalar leaf of v (v itself, or every
// field of a struct-typed option, recursively) with that leaf changed to
// a different value, restoring it afterwards.
func bumpLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			bumpLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
		return
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("%s: no way to change a %s; teach bumpLeaves", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// TestEveryOptionIsClassified: every field of Options is listed in
// optionInKey, nothing else is, and changing a field moves the cache
// key's fingerprint exactly when its entry says it is in the key — so a
// new option cannot silently miss the key it belongs in, nor enter it
// when it does not.
func TestEveryOptionIsClassified(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		fields[typ.Field(i).Name] = true
	}
	for name := range optionInKey {
		if !fields[name] {
			t.Errorf("optionInKey lists %q, which is not a field of Options", name)
		}
	}

	opts := DefaultOptions()
	base := optionsFingerprint(opts)
	v := reflect.ValueOf(&opts).Elem()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		inKey, ok := optionInKey[name]
		if !ok {
			t.Errorf("Options.%s is not classified in optionInKey: say whether it enters the cache key and why", name)
			continue
		}
		bumpLeaves(t, v.Field(i), name, func(path string) {
			if moved := optionsFingerprint(opts) != base; moved != inKey {
				t.Errorf("changing %s: fingerprint moved = %v, optionInKey says %v", path, moved, inKey)
			}
		})
	}
}
