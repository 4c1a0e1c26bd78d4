(** Static checks a real assembler would perform: every register is
    written before it is read (the generators emit forward-branching
    straight-line code, so textual order is execution order), branch
    targets exist, and operand/instruction types agree.  Register ids
    must be non-negative; the written-before-read flags are one array
    over {!Dataflow.regs}. *)

exception Invalid of string

val kernel : Types.kernel -> unit

(** Definite-assignment check on the control-flow graph (via {!Dataflow}):
    flags any register with a path from the entry to a read that crosses no
    write.  Stricter than the textual rule of {!kernel} on branchy code;
    the engine runs it on every kernel it compiles. *)
val dataflow : Types.kernel -> unit
