package trace

import "testing"

func TestKindNames(t *testing.T) {
	if Dispatch.String() != "dispatch" || Fault.String() != "fault" {
		t.Error("kind names wrong")
	}
}
