//go:build race

package node

// raceEnabled reports whether the race detector is compiled in. The
// allocation pin skips under it: sync.Pool deliberately drops items at
// random when racing, so the frame and event pools allocate even in steady
// state.
const raceEnabled = true
