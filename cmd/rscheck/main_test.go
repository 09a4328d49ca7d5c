package main

import (
	"strings"
	"testing"
)

func TestYesNo(t *testing.T) {
	if yn(true) != "yes" || yn(false) != "no" {
		t.Error("yn wrong")
	}
}

func TestIndent(t *testing.T) {
	got := indent("a\nb")
	if got != "  a\n  b" {
		t.Errorf("indent = %q", got)
	}
	if !strings.HasPrefix(indent("x"), "  ") {
		t.Error("indent should prefix two spaces")
	}
}
