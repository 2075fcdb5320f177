// Package fanout is analyzer testdata. `want` comments assert the
// diagnostics the fanout analyzer must (and must not) produce.
package fanout

func Spawn(f func()) {
	go f() // want `go statement`
}

func SpawnLiteral(done chan struct{}) {
	go func() { close(done) }() // want `go statement`
}

// Inline is a negative example: calling a function value starts no
// goroutine.
func Inline(f func()) {
	f()
}

// Deferred is a negative example: a deferred call runs on the caller.
func Deferred(f func()) {
	defer f()
}

// Suppressed is a negative example: the finding is silenced by a
// reasoned nolint comment.
func Suppressed(f func()) {
	//blaeu:nolint fanout the fixture stands in for a sanctioned goroutine
	go f()
}
