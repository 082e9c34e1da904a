// Package trace defines the machine-level events — dispatches,
// suspends, sends, faults — that each node hands to its mdp.Node.Watch
// tap. Nothing records them unless a tap is attached (internal/obs,
// jm-jc -trace), and the hot paths pay only a nil check.
//
// The real J-Machine had no such facility; the paper's critique wishes
// it had ("including statistics collection hardware in the machine
// design would have greatly simplified ... the measurement collection
// process").
package trace

import "fmt"

// Kind classifies an event.
type Kind uint8

const (
	// Dispatch: a task was created for a message (A = handler IP,
	// B = message words).
	Dispatch Kind = iota
	// Resume: a suspended thread was restored (A = IP).
	Resume
	// Suspend: the running thread ended (A = IP reached).
	Suspend
	// Send: a message was injected (A = destination node, B = words).
	Send
	// Fault: a processor fault was serviced (A = fault kind, B = IP).
	Fault
	// Halt: the node stopped (A = IP).
	Halt
	// Mark: an application-defined annotation.
	Mark
)

var kindNames = [...]string{
	"dispatch", "resume", "suspend", "send", "fault", "halt", "mark",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Event is one trace record.
type Event struct {
	Cycle int64
	Node  int32
	Kind  Kind
	A, B  int32
}

// String renders the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("[%8d] n%03d %-8s a=%d b=%d", e.Cycle, e.Node, e.Kind, e.A, e.B)
}
