package engine

import "reflect"

// EventBuf exposes an instance's event buffer to the external tests.
func EventBuf(st *Instance) []Event { return st.events }

// UndoLen returns the number of before-images in an instance's undo
// log (the log keeps them unexported).
func UndoLen(st *Instance) int { return reflect.ValueOf(st.Undo).Field(0).Len() }
