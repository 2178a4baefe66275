package telemetry

import "runtime"

// gid returns the current goroutine's id by parsing the first line of the
// stack header ("goroutine 123 [running]:"). The runtime offers no public
// accessor on purpose: goroutine identity is a poor substitute for explicit
// plumbing. RunWith needs it only to map a goroutine to the sink installed
// for it, and Default is the one caller.
//
// The lookup is expensive where it matters. runtime.Stack takes the
// runtime's global print lock, so goroutines looking up at once serialise:
// with one RunWith sink live per CPU, as in every sweep, a counter lookup
// through Default measured 24.6 µs on a 2-core host, against 67 ns when no
// goroutine-local sink is registered (the activeLocals fast path). Model
// code therefore resolves the sink once where a public operation starts and
// carries the *Sink from there; the lookup is paid once per operation, not
// once per event.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes), then read digits until the space.
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
