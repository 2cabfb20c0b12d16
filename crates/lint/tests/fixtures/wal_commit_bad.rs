//! Known-bad: a read batch's queued acknowledgments go on the wire before
//! the journal commit that makes the batch's records durable.

impl Frontend {
    pub fn handle_line(&mut self, line_no: u64, spec: JobSpec) -> Result<(), WalError> {
        self.durable.append(WalRecord::Job(spec.clone()))?;
        self.responder.accepted(line_no, spec.id);
        Ok(())
    }

    pub fn end_batch(&mut self) -> Result<(), WalError> {
        self.responder.send_batch();
        self.durable.commit()?;
        Ok(())
    }
}
