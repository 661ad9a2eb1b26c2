package wire

import "reflect"

// NumTags is one past the last tag in the table.
const NumTags = numTags

// ZeroMessage returns the zero value of the type registered under tag,
// or nil when the tag has no codec.
func ZeroMessage(tag Tag) any {
	if tag >= numTags || byTag[tag] == nil {
		return nil
	}
	return reflect.Zero(byTag[tag].typ).Interface()
}
