// Package drain arms SIGINT/SIGTERM graceful-drain handling for the
// CLIs: the first signal flips a flag the sweep runners poll before
// starting each point or experiment task — in-flight work finishes, the
// journal is flushed, and the process exits nonzero with a resume hint —
// while a second signal falls back to the default handler and kills the
// process outright.
package drain

import (
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// Arm installs the signal handler and returns the poll function to wire
// into sweep.Runner.Interrupted / exp.Options.Interrupted. name prefixes
// the stderr notice ("tgsweep").
func Arm(name string) func() bool {
	var interrupted atomic.Bool
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		interrupted.Store(true)
		fmt.Fprintf(os.Stderr, "%s: %v — draining (in-flight work finishes; interrupt again to kill)\n", name, sig)
		// Restore default handling so a second signal terminates.
		signal.Stop(ch)
	}()
	return interrupted.Load
}
