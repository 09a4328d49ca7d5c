package engine

// EventBuf exposes an instance's event buffer to the external tests.
func EventBuf(st *Instance) []Event { return st.events }
