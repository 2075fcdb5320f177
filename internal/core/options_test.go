package core

import (
	"reflect"
	"testing"
)

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
		f := v.Field(i)
		if f.Kind() != reflect.Int && f.Kind() != reflect.Int64 {
			t.Fatalf("Options.%s is a %s; teach this test to change it", name, f.Kind())
		}
		old := f.Int()
		f.SetInt(old + 1)
		if moved := optionsFingerprint(opts) != base; moved != inKey {
			t.Errorf("changing %s: fingerprint moved = %v, optionInKey says %v", name, moved, inKey)
		}
		f.SetInt(old)
	}
}
